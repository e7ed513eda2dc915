package fsys

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"springfs/internal/naming"
)

// pathLayer is the smallest path-keyed layer: a memFS that lists by path,
// with the PathBase deriving the rest.
type pathLayer struct {
	PathBase
	*memFS
}

func newPathLayer(name string) *pathLayer {
	l := &pathLayer{memFS: newMemFS(name + "-under")}
	l.Init(name, l)
	return l
}

func (l *pathLayer) FSName() string { return l.PathBase.FSName() }
func (l *pathLayer) Open(name string, cred naming.Credentials) (File, error) {
	return l.PathBase.Open(name, cred)
}
func (l *pathLayer) Bind(name string, obj naming.Object, cred naming.Credentials) error {
	return l.PathBase.Bind(name, obj, cred)
}
func (l *pathLayer) Unbind(name string, cred naming.Credentials) error {
	return l.PathBase.Unbind(name, cred)
}
func (l *pathLayer) List(cred naming.Credentials) ([]naming.Binding, error) {
	return l.PathBase.List(cred)
}
func (l *pathLayer) ListPath(path string, cred naming.Credentials) ([]naming.Binding, error) {
	ctx, err := naming.ContextAt(l.memFS, path, cred)
	if err != nil {
		return nil, err
	}
	return ctx.List(cred)
}

// TestPathBaseDerivesTheRoot: Open, Unbind, List and Dir funnel into the
// operations the layer wrote; Bind is refused by name.
func TestPathBaseDerivesTheRoot(t *testing.T) {
	l := newPathLayer("pl")
	if l.FSName() != "pl" {
		t.Errorf("FSName = %q", l.FSName())
	}
	if _, err := l.Create("f", naming.Root); err != nil {
		t.Fatal(err)
	}
	if _, err := l.CreateContext("d", naming.Root); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Open("f", naming.Root); err != nil {
		t.Errorf("Open of a file: %v", err)
	}
	if _, err := l.Open("d", naming.Root); !errors.Is(err, ErrIsDirectory) {
		t.Errorf("Open of a directory = %v, want ErrIsDirectory", err)
	}
	if err := l.Bind("x", 1, naming.Root); err == nil || !strings.HasPrefix(err.Error(), "pl: ") {
		t.Errorf("Bind = %v, want a refusal naming the layer", err)
	}
	bindings, err := l.List(naming.Root)
	if err != nil || len(bindings) != 2 {
		t.Errorf("List = %v, %v; want 2 bindings", bindings, err)
	}
	d := l.Dir("/d/")
	if d.Root != PathRoot(l) || d.Path != "d" {
		t.Errorf("Dir = %+v", d)
	}
	if err := l.Unbind("f", naming.Root); err != nil {
		t.Errorf("Unbind: %v", err)
	}
	if _, err := l.Open("f", naming.Root); err == nil {
		t.Error("Unbind did not remove the file")
	}
}

// tableFile is a PathTable wrapper.
type tableFile struct {
	PathHandle
	id int
}

// tableModel is the naive reference for PathTable: a map by path plus the
// set of displaced-while-retained wrappers.
type tableModel struct {
	files   map[string]*tableFile
	orphans map[*tableFile]bool
}

func (m *tableModel) drop(path string) (*tableFile, bool) {
	f := m.files[path]
	delete(m.files, path)
	if f != nil && f.Retained() > 0 {
		m.orphans[f] = true
		return f, true
	}
	return f, false
}

func checkTable(t *testing.T, step string, tbl *PathTable[*tableFile], m *tableModel) {
	t.Helper()
	filed, orphans := tbl.Snapshot()
	if !reflect.DeepEqual(filed, m.files) {
		t.Fatalf("%s: filed %v, model %v", step, filed, m.files)
	}
	if len(orphans) != len(m.orphans) {
		t.Fatalf("%s: %d orphans, model %d", step, len(orphans), len(m.orphans))
	}
	for _, f := range orphans {
		if !m.orphans[f] {
			t.Fatalf("%s: unexpected orphan %d", step, f.id)
		}
	}
	for path, f := range filed {
		if f.Path() != path {
			t.Fatalf("%s: wrapper %d filed under %q says %q", step, f.id, path, f.Path())
		}
	}
}

// TestPathTableAgainstModel drives the table and the model with the same
// operations: remove and rename-over of retained and unretained wrappers,
// rename onto itself, and the orphan leaving on the last release.
func TestPathTableAgainstModel(t *testing.T) {
	var tbl PathTable[*tableFile]
	m := &tableModel{files: map[string]*tableFile{}, orphans: map[*tableFile]bool{}}
	if f, retained := tbl.Remove("nothing"); f != nil || retained {
		t.Fatalf("Remove on the zero table = %v, %v", f, retained)
	}
	next := 0
	add := func(path string) *tableFile {
		f := tbl.LookupOrAdd(path, func() *tableFile { next++; return &tableFile{id: next} })
		if m.files[path] == nil {
			m.files[path] = f
		}
		if m.files[path] != f {
			t.Fatalf("LookupOrAdd(%q) returned wrapper %d, model has %d", path, f.id, m.files[path].id)
		}
		if g, ok := tbl.Lookup(path); !ok || g != f {
			t.Fatalf("Lookup(%q) = %v, %v after LookupOrAdd", path, g, ok)
		}
		return f
	}
	a, b, c, d := add("a"), add("b"), add("c"), add("d")
	if add("a") != a {
		t.Fatal("second LookupOrAdd made a second wrapper")
	}
	tbl.Retain(b)
	tbl.Retain(b)
	tbl.Retain(d)
	checkTable(t, "filled", &tbl, m)

	remove := func(step, path string) {
		gf, gr := tbl.Remove(path)
		wf, wr := m.drop(path)
		if gf != wf || gr != wr {
			t.Fatalf("%s: Remove = %v, %v; model %v, %v", step, gf, gr, wf, wr)
		}
		checkTable(t, step, &tbl, m)
	}
	rename := func(step, from, to string) {
		gf, gr := tbl.Rename(from, to, false)
		var wf *tableFile
		var wr bool
		if from != to {
			wf, wr = m.drop(to)
			if f := m.files[from]; f != nil {
				delete(m.files, from)
				m.files[to] = f
			}
		}
		if gf != wf || gr != wr {
			t.Fatalf("%s: Rename = %v, %v; model %v, %v", step, gf, gr, wf, wr)
		}
		checkTable(t, step, &tbl, m)
	}
	remove("remove unretained", "a")
	remove("remove absent", "a")
	remove("remove retained", "b")
	rename("rename onto itself", "c", "c")
	rename("rename over retained", "c", "d")
	rename("rename to a free path", "d", "e")
	add("f")
	rename("rename over unretained", "e", "f")
	rename("rename of an unfiled path", "nothing", "f")
	if c.Path() != "f" || a.Path() != "a" || b.Path() != "b" {
		t.Errorf("paths after the moves: c=%q a=%q b=%q", c.Path(), a.Path(), b.Path())
	}

	// b is retained twice, d once: each leaves the orphan set only on its
	// last release.
	tbl.Release(b)
	checkTable(t, "first release of b", &tbl, m)
	tbl.Release(b)
	delete(m.orphans, b)
	checkTable(t, "last release of b", &tbl, m)
	tbl.Release(d)
	delete(m.orphans, d)
	checkTable(t, "last release of d", &tbl, m)
}

// TestPathTableRenameOfDirectoryRekeysPrefix is the regression test for the
// stale-wrapper bug: after rename(dir, dir2) the wrappers of dir's files
// stayed filed under dir/..., so a file later created at an old path got
// the wrapper — and the lower handles — of the file that had moved away.
// The filed wrappers, the one with open handles, and an orphan move; a
// sibling whose name merely starts like the directory's does not.
func TestPathTableRenameOfDirectoryRekeysPrefix(t *testing.T) {
	var tbl PathTable[*tableFile]
	next := 0
	add := func(path string) *tableFile {
		return tbl.LookupOrAdd(path, func() *tableFile { next++; return &tableFile{id: next} })
	}
	a, deep, open, gone := add("dir/a"), add("dir/sub/deep"), add("dir/open"), add("dir/gone")
	sibling, other := add("dir2x"), add("dirt/a")
	tbl.Retain(open)
	tbl.Retain(gone)
	if _, retained := tbl.Remove("dir/gone"); !retained {
		t.Fatal("dir/gone should be an orphan")
	}

	// Without the layer's word that the name was a directory nothing
	// beneath it moves: that is the old behaviour, kept for files.
	tbl.Rename("dir", "dir2", false)
	if f, ok := tbl.Lookup("dir/a"); !ok || f != a {
		t.Fatal("a file rename re-keyed a prefix")
	}

	if f, retained := tbl.Rename("dir", "dir2", true); f != nil || retained {
		t.Fatalf("directory rename displaced %v, %v", f, retained)
	}
	filed, orphans := tbl.Snapshot()
	want := map[string]*tableFile{
		"dir2/a": a, "dir2/sub/deep": deep, "dir2/open": open,
		"dir2x": sibling, "dirt/a": other,
	}
	if !reflect.DeepEqual(filed, want) {
		t.Fatalf("filed after rename(dir, dir2): %v, want %v", filed, want)
	}
	for path, f := range filed {
		if f.Path() != path {
			t.Errorf("wrapper %d filed under %q says %q", f.id, path, f.Path())
		}
	}
	if open.Retained() != 1 {
		t.Errorf("the open handle's retain count moved: %d", open.Retained())
	}
	if len(orphans) != 1 || orphans[0] != gone || gone.Path() != "dir2/gone" {
		t.Errorf("orphans %v, path %q; want the one orphan re-keyed to dir2/gone", orphans, gone.Path())
	}

	// The point of it all: a file created at the old path is a new file.
	if f := add("dir/a"); f == a {
		t.Error("a new file at the old path got the wrapper of the file that moved")
	}
	tbl.Release(gone)
	if _, orphans := tbl.Snapshot(); len(orphans) != 0 {
		t.Error("re-keyed orphan did not leave on its last release")
	}
}

// TestPathTableConcurrentLookups: racing lookups of one path build one
// wrapper (run under -race).
func TestPathTableConcurrentLookups(t *testing.T) {
	var tbl PathTable[*tableFile]
	var built sync.Map
	var wg sync.WaitGroup
	got := make([]*tableFile, 16)
	for i := range got {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			path := fmt.Sprintf("p%d", i%2)
			got[i] = tbl.LookupOrAdd(path, func() *tableFile {
				f := &tableFile{id: i}
				built.Store(f, path)
				return f
			})
			tbl.Retain(got[i])
			tbl.Release(got[i])
		}()
	}
	wg.Wait()
	n := 0
	built.Range(func(_, _ any) bool { n++; return true })
	if n != 2 {
		t.Fatalf("%d wrappers built for 2 paths", n)
	}
	for i, f := range got {
		if f != got[i%2] {
			t.Fatalf("lookup %d got a different wrapper for its path", i)
		}
	}
}

// TestHealth: only a transport failure indicts, wrapped or not; membership
// is per backend; out-of-range indexes are inert.
func TestHealth(t *testing.T) {
	var h Health
	if h.OK(0) || len(h.Snapshot()) != 0 {
		t.Fatal("the zero Health tracks a backend")
	}
	for i := 0; i < 3; i++ {
		h.Add()
	}
	h.Note(0, nil)
	h.Note(0, io.EOF)
	h.Note(0, naming.ErrNotFound)
	h.Note(0, fmt.Errorf("read: %w", io.ErrUnexpectedEOF))
	if !h.OK(0) {
		t.Fatal("a data-level error indicted the backend")
	}
	h.Note(1, fmt.Errorf("dfs: call timed out (%w)", fmt.Errorf("link: %w", ErrUnavailable)))
	h.Note(2, ErrUnavailable)
	h.Note(3, ErrUnavailable)
	h.Revive(7)
	h.Note(-1, ErrUnavailable)
	if got := h.Snapshot(); !reflect.DeepEqual(got, []bool{true, false, false}) {
		t.Fatalf("Snapshot = %v", got)
	}
	if h.OK(-1) || h.OK(3) || h.OK(7) || h.OK(MaxBackends) {
		t.Error("a backend that was never added is in the fan-out")
	}
	h.Revive(1)
	h.Note(2, ErrUnavailable)
	if got := h.Snapshot(); !reflect.DeepEqual(got, []bool{true, true, false}) {
		t.Fatalf("Snapshot after revive = %v", got)
	}
	if n := testing.AllocsPerRun(100, func() { _ = h.OK(1) }); n != 0 {
		t.Errorf("OK allocates %v times", n)
	}
}

// TestHealthConcurrent: checks, indictments and revivals of different
// backends race without losing one another's bits (run under -race).
func TestHealthConcurrent(t *testing.T) {
	var h Health
	for i := 0; i < MaxBackends; i++ {
		h.Add()
	}
	var wg sync.WaitGroup
	for i := 0; i < MaxBackends; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 100; r++ {
				h.Note(i, ErrUnavailable)
				if h.OK(i) {
					t.Errorf("backend %d in the fan-out right after its indictment", i)
				}
				h.Revive(i)
				_ = h.OK((i + 1) % MaxBackends)
			}
			if i%2 == 1 {
				h.Note(i, ErrUnavailable)
			}
		}()
	}
	wg.Wait()
	for i, ok := range h.Snapshot() {
		if ok != (i%2 == 0) {
			t.Fatalf("backend %d: in fan-out = %v", i, ok)
		}
	}
}

// creatFS is a memFS whose Create keeps an existing file, as creat does.
type creatFS struct{ *memFS }

func (c creatFS) Create(name string, cred naming.Credentials) (File, error) {
	if f, err := c.Open(name, cred); err == nil {
		return f, nil
	}
	return c.memFS.Create(name, cred)
}

var errInjected = errors.New("injected failure")

func contents(t *testing.T, fs FS, name string) string {
	t.Helper()
	f, err := fs.Open(name, naming.Root)
	if err != nil {
		return "<absent>"
	}
	l, _ := f.GetLength()
	buf := make([]byte, l)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	return string(buf)
}

// TestCommitFile: a commit replaces final with exactly the new bytes, and
// a failure at any step removes tmp and leaves final as it was.
func TestCommitFile(t *testing.T) {
	mem := newMemFS("commit")
	var fail string // the operation that fails, if any
	fs := NewFaultFS("commit", func(op string) error {
		if op == fail {
			return errInjected
		}
		return nil
	})
	if err := fs.StackOn(creatFS{mem}); err != nil {
		t.Fatal(err)
	}
	if err := CommitFile(fs, ".tmp", "final", []byte("first version"), naming.Root); err != nil {
		t.Fatalf("first commit: %v", err)
	}
	if got := contents(t, mem, "final"); got != "first version" {
		t.Fatalf("final = %q", got)
	}
	if got := contents(t, mem, ".tmp"); got != "<absent>" {
		t.Fatalf("tmp survived a commit holding %q", got)
	}

	// A temporary that outlived a crash, longer than the next commit.
	stale, err := mem.Create(".tmp", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stale.WriteAt([]byte("a much longer stale temporary"), 0); err != nil {
		t.Fatal(err)
	}
	if err := CommitFile(fs, ".tmp", "final", []byte("second"), naming.Root); err != nil {
		t.Fatalf("commit over a stale tmp: %v", err)
	}
	if got := contents(t, mem, "final"); got != "second" {
		t.Fatalf("final after a commit over a longer stale tmp = %q", got)
	}

	for _, step := range []string{"create", "write", "get_length", "sync", "rename"} {
		fail = step
		err := CommitFile(fs, ".tmp", "final", []byte("never"), naming.Root)
		if !errors.Is(err, errInjected) {
			t.Errorf("failure at %s: CommitFile = %v", step, err)
		}
		if got := contents(t, mem, "final"); got != "second" {
			t.Errorf("failure at %s changed final to %q", step, got)
		}
		if got := contents(t, mem, ".tmp"); got != "<absent>" {
			t.Errorf("failure at %s left tmp behind (%q)", step, got)
		}
	}
	fail = "set_length"
	if stale, err = mem.Create(".tmp", naming.Root); err != nil {
		t.Fatal(err)
	}
	if _, err := stale.WriteAt([]byte("stale again, and longer than the commit"), 0); err != nil {
		t.Fatal(err)
	}
	if err := CommitFile(fs, ".tmp", "final", []byte("never"), naming.Root); !errors.Is(err, errInjected) {
		t.Errorf("failure truncating a stale tmp: CommitFile = %v", err)
	}
	if got := contents(t, mem, "final"); got != "second" {
		t.Errorf("failure at set_length changed final to %q", got)
	}
}

// TestFaultFSAppendIsOneOperation: an append through the fault layer asks
// append once and is one append below, not a get_length and a write that
// another appender could fall between.
func TestFaultFSAppendIsOneOperation(t *testing.T) {
	mem := newMemFS("append")
	var asked []string
	fs := NewFaultFS("append", func(op string) error {
		asked = append(asked, op)
		if op == "append" && len(asked) > 2 {
			return errInjected
		}
		return nil
	})
	if err := fs.StackOn(creatFS{mem}); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("log", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{"one.", "never"} {
		_, _, err = Append(f, []byte(rec))
	}
	if !errors.Is(err, errInjected) || !reflect.DeepEqual(asked, []string{"create", "append", "append"}) {
		t.Errorf("appends asked %v and the second returned %v, want [create append append] and the injected error", asked, err)
	}
	if got := contents(t, mem, "log"); got != "one." {
		t.Errorf("log = %q, want %q", got, "one.")
	}
}

// TestSweepPrefix: everything under the prefix goes, except what keep
// vouches for; other names are not even asked about.
func TestSweepPrefix(t *testing.T) {
	fs := newMemFS("sweep")
	for _, name := range []string{".tmp-1", ".tmp-2", ".tmp-live", "data", ".other"} {
		if _, err := fs.Create(name, naming.Root); err != nil {
			t.Fatal(err)
		}
	}
	var asked []string
	n, err := SweepPrefix(fs, ".tmp-", func(name string) bool {
		asked = append(asked, name)
		return name == ".tmp-live"
	}, naming.Root)
	if err != nil || n != 2 {
		t.Fatalf("SweepPrefix = %d, %v; want 2, nil", n, err)
	}
	sort.Strings(asked)
	if !reflect.DeepEqual(asked, []string{".tmp-1", ".tmp-2", ".tmp-live"}) {
		t.Errorf("keep was asked about %v", asked)
	}
	if n, err := SweepPrefix(fs, ".tmp-", nil, naming.Root); err != nil || n != 1 {
		t.Errorf("SweepPrefix without keep = %d, %v; want 1, nil", n, err)
	}
	left, _ := fs.List(naming.Root)
	var names []string
	for _, b := range left {
		names = append(names, b.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, []string{".other", "data"}) {
		t.Errorf("left after the sweeps: %v", names)
	}
}
