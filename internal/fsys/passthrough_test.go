package fsys

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// newIdentityOn stacks an identity layer on a fresh in-memory file system.
// With crossDomain the lower file system is reached through a proxy, so
// every lower resolve mints a fresh file or context proxy.
func newIdentityOn(t *testing.T, crossDomain bool) (*IdentityFS, *memFS) {
	t.Helper()
	node := spring.NewNode("n")
	t.Cleanup(node.Stop)
	upper := spring.NewDomain(node, "upper")
	mem := newMemFS("mem")
	var under StackableFS = mem
	if crossDomain {
		under = WrapStackable(spring.Connect(upper, spring.NewDomain(node, "lower")), mem)
	}
	ident := NewIdentityFS("ident")
	if err := ident.StackOn(under); err != nil {
		t.Fatal(err)
	}
	return ident, mem
}

func TestPassthroughUnderSlot(t *testing.T) {
	ident := NewIdentityFS("ident")
	if _, err := ident.Resolve("x", naming.Root); !errors.Is(err, ErrNotStacked) {
		t.Errorf("Resolve before StackOn = %v, want ErrNotStacked", err)
	}
	if _, err := ident.Create("x", naming.Root); !errors.Is(err, ErrNotStacked) {
		t.Errorf("Create before StackOn = %v, want ErrNotStacked", err)
	}
	if err := ident.SyncFS(); !errors.Is(err, ErrNotStacked) {
		t.Errorf("SyncFS before StackOn = %v, want ErrNotStacked", err)
	}
	if err := ident.StackOn(newMemFS("a")); err != nil {
		t.Fatal(err)
	}
	if err := ident.StackOn(newMemFS("b")); !errors.Is(err, ErrAlreadyStacked) {
		t.Errorf("second StackOn = %v, want ErrAlreadyStacked", err)
	}
	if ident.FSName() != "ident" {
		t.Errorf("FSName = %q", ident.FSName())
	}
}

// TestPassthroughTravelsAsOuterLayer: the embedded base must hand out the
// layer that embeds it, or a same-domain client would lose the layer's
// overrides.
func TestPassthroughTravelsAsOuterLayer(t *testing.T) {
	ident, _ := newIdentityOn(t, false)
	node := spring.NewNode("n2")
	defer node.Stop()
	d := spring.NewDomain(node, "d")
	if got := ident.WrapForChannel(spring.Connect(d, d)); got != naming.Object(ident) {
		t.Fatalf("same-domain WrapForChannel = %T, want the *IdentityFS itself", got)
	}
	proxy, ok := ident.WrapForChannel(spring.Connect(d, spring.NewDomain(node, "e"))).(*StackableFSProxy)
	if !ok || proxy.Unwrap() != StackableFS(ident) {
		t.Fatalf("cross-domain WrapForChannel does not proxy the outer layer")
	}
}

// TestPassthroughOneWrapperPerLowerFile covers the handle table on both a
// same-domain and a cross-domain lower layer: every route to a file — full
// path, Open, List, a created or resolved sub-context, at any depth —
// yields the one canonical wrapper, and the table holds nothing per
// resolve.
func TestPassthroughOneWrapperPerLowerFile(t *testing.T) {
	for _, cross := range []bool{false, true} {
		ident, _ := newIdentityOn(t, cross)
		dir, err := ident.CreateContext("d", naming.Root)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dir.CreateContext("e", naming.Root); err != nil {
			t.Fatal(err)
		}
		created, err := ident.Create("d/e/f", naming.Root)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := created.(*ForwardFile); !ok {
			t.Fatalf("cross=%v: Create returned %T, want the layer's wrapper", cross, created)
		}
		via := map[string]naming.Object{}
		via["full path"], _ = ident.Resolve("d/e/f", naming.Root)
		via["open"], _ = ident.Open("d/e/f", naming.Root)
		via["created context"], _ = dir.Resolve("e/f", naming.Root)
		if d, err := ident.Resolve("d", naming.Root); err == nil {
			if e, err := d.(naming.Context).Resolve("e", naming.Root); err == nil {
				via["resolved contexts"], _ = e.(naming.Context).Resolve("f", naming.Root)
				if bs, err := e.(naming.Context).List(naming.Root); err == nil && len(bs) == 1 {
					via["list"] = bs[0].Object
				}
			}
		}
		for route, obj := range via {
			if obj != naming.Object(created) {
				t.Errorf("cross=%v: %s yields %T %p, want the wrapper Create returned", cross, route, obj, obj)
			}
		}
		if len(via) != 5 {
			t.Errorf("cross=%v: only %d of 5 routes resolved", cross, len(via))
		}
		for i := 0; i < 100; i++ {
			if _, err := ident.Resolve("d", naming.Root); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(ident.Files()); n != 1 {
			t.Errorf("cross=%v: handle table holds %d entries after directory resolves, want 1", cross, n)
		}
	}
}

// TestPassthroughRenameRemoveBookkeeping: an unlinked lower file's wrapper
// leaves the table; a file that merely moves, or is renamed onto itself,
// keeps its wrapper.
func TestPassthroughRenameRemoveBookkeeping(t *testing.T) {
	ident, _ := newIdentityOn(t, true)
	a, _ := ident.Create("a", naming.Root)
	b, _ := ident.Create("b", naming.Root)
	if len(ident.Files()) != 2 {
		t.Fatalf("table holds %d wrappers, want 2", len(ident.Files()))
	}
	if err := ident.Rename("a", "a", naming.Root); err != nil {
		t.Fatal(err)
	}
	if got, _ := ident.Open("a", naming.Root); got != a {
		t.Error("rename onto itself dropped the live wrapper")
	}
	if err := ident.Rename("a", "b", naming.Root); err != nil {
		t.Fatal(err)
	}
	if got, _ := ident.Open("b", naming.Root); got != a {
		t.Error("the moved file changed wrappers")
	}
	if fs := ident.Files(); len(fs) != 1 || fs[0] != a {
		t.Errorf("after rename-over the table holds %d wrappers (overwritten %p still there?)", len(fs), b)
	}
	if err := ident.Rename("missing", "b", naming.Root); err == nil {
		t.Error("rename of a missing name succeeded")
	}
	if len(ident.Files()) != 1 {
		t.Error("a failed rename dropped the destination's wrapper")
	}
	if err := ident.Remove("b", naming.Root); err != nil {
		t.Fatal(err)
	}
	if n := len(ident.Files()); n != 0 {
		t.Errorf("after Remove the table holds %d wrappers, want 0", n)
	}
}

// TestPassthroughConcurrentLookups hammers the handle table from several
// goroutines (run under -race in CI): lookups of one shared file always
// find the one wrapper while other files are created, renamed over and
// removed around it.
func TestPassthroughConcurrentLookups(t *testing.T) {
	ident, _ := newIdentityOn(t, true)
	shared, err := ident.Create("shared", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a, b := fmt.Sprintf("a%d", g), fmt.Sprintf("b%d", g)
			for i := 0; i < 200; i++ {
				if got, err := ident.Open("shared", naming.Root); err != nil || got != shared {
					t.Errorf("shared file resolved to %p, %v; want %p", got, err, shared)
					return
				}
				for _, name := range []string{a, b} {
					if _, err := ident.Create(name, naming.Root); err != nil {
						t.Error(err)
						return
					}
				}
				if err := ident.Rename(a, b, naming.Root); err != nil {
					t.Error(err)
					return
				}
				if err := ident.Remove(b, naming.Root); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if fs := ident.Files(); len(fs) != 1 || fs[0] != shared {
		t.Errorf("table holds %d wrappers after the churn, want only the shared file's", len(fs))
	}
}

// TestPassthroughBindStoresLowerFile: binding one of the layer's own files
// under a second name binds the lower file, so both names resolve to the
// same wrapper; foreign objects are bound as they are.
func TestPassthroughBindStoresLowerFile(t *testing.T) {
	ident, mem := newIdentityOn(t, false)
	f, _ := ident.Create("f", naming.Root)
	if err := ident.Bind("g", f, naming.Root); err != nil {
		t.Fatal(err)
	}
	if raw, _ := mem.Resolve("g", naming.Root); raw != naming.Object(f.(*ForwardFile).Lower()) {
		t.Errorf("lower layer holds %T under the second name, want the lower file", raw)
	}
	if got, _ := ident.Resolve("g", naming.Root); got != naming.Object(f) {
		t.Error("second name resolves to a different wrapper")
	}
	if err := ident.Bind("n", 42, naming.Root); err != nil {
		t.Fatal(err)
	}
	if got, _ := ident.Resolve("n", naming.Root); got != 42 {
		t.Errorf("foreign object came back as %v", got)
	}
	if err := ident.Unbind("n", naming.Root); err != nil {
		t.Fatal(err)
	}
}

// pagedFile is a memFile that is the pager for its own mappings, the way
// a transforming layer's file is.
type pagedFile struct {
	*memFile
	table *ConnectionTable
	ins   int // calls to pageIn
}

func (f *pagedFile) Bind(caller vm.CacheManager, access vm.Rights, offset, length vm.Offset) (vm.CacheRights, error) {
	rights, _, _ := f.table.Bind(caller, 1, func() vm.PagerObject {
		return &FilePager{File: f, In: f.pageIn, Out: f.pageOut}
	})
	return rights, nil
}

func (f *pagedFile) pageIn(offset, size vm.Offset, access vm.Rights) ([]byte, error) {
	f.ins++
	out := make([]byte, size)
	if _, err := f.ReadAt(out, offset); err != nil && err != io.EOF {
		return nil, err
	}
	return out, nil
}

// pageOut writes whole pages, which pads the file; a page-out never changes
// the length, so it is restored.
func (f *pagedFile) pageOut(offset, size vm.Offset, data []byte) error {
	length, _ := f.GetLength()
	if _, err := f.WriteAt(data, offset); err != nil {
		return err
	}
	return f.SetLength(length)
}

// TestFilePagerRoundTrip maps a file through a VMM, so data moves through
// FilePager in both directions, and checks that a page-out leaves the file
// length alone.
func TestFilePagerRoundTrip(t *testing.T) {
	node := spring.NewNode("vm")
	defer node.Stop()
	vmm := vm.New(spring.NewDomain(node, "vmm"), "vmm")
	f := &pagedFile{memFile: &memFile{}, table: NewConnectionTable(spring.NewDomain(node, "fs"))}
	want := pattern(BlockSize+100, 3)
	if _, err := f.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	m, err := vmm.Map(f, vm.RightsWrite)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if _, err := m.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("mapped read differs from what was written (err %v)", err)
	}
	copy(want[10:], "through the pager")
	if _, err := m.WriteAt(want[10:27], 10); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("file read after mapped write + sync differs (err %v)", err)
	}
	if l, _ := f.GetLength(); l != int64(len(want)) {
		t.Fatalf("page-out changed the length to %d, want %d", l, len(want))
	}
}

// TestFilePagerGrantSkipsIn: a whole-block overwrite through a mapping asks
// the pager for write access without the data (vm.RightsNoData), across the
// fs_pager proxy; FilePager answers it without calling the layer's In, so
// the block about to be replaced is neither read below nor decoded. A
// partial block still goes through In.
func TestFilePagerGrantSkipsIn(t *testing.T) {
	node := spring.NewNode("vm")
	defer node.Stop()
	vmm := vm.New(spring.NewDomain(node, "vmm"), "vmm")
	f := &pagedFile{memFile: &memFile{}, table: NewConnectionTable(spring.NewDomain(node, "fs"))}
	want := pattern(3*BlockSize, 5)
	if _, err := f.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	m, err := vmm.Map(f, vm.RightsWrite)
	if err != nil {
		t.Fatal(err)
	}
	copy(want, pattern(2*BlockSize, 6))
	if _, err := m.WriteAt(want[:2*BlockSize], 0); err != nil {
		t.Fatal(err)
	}
	if f.ins != 0 {
		t.Errorf("whole-block overwrite called In %d times, want 0", f.ins)
	}
	copy(want[2*BlockSize+7:], "partial")
	if _, err := m.WriteAt([]byte("partial"), 2*BlockSize+7); err != nil {
		t.Fatal(err)
	}
	if f.ins != 1 {
		t.Errorf("partial-block write: In called %d times in all, want 1", f.ins)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if _, err := f.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("file after the overwrites + sync differs from the model (err %v)", err)
	}
}

// pathRoot records the full paths a PathDir calls back with.
type pathRoot struct {
	naming.Context
	calls []string
}

func (r *pathRoot) Resolve(name string, cred naming.Credentials) (naming.Object, error) {
	r.calls = append(r.calls, "resolve "+name)
	return nil, nil
}
func (r *pathRoot) Bind(name string, obj naming.Object, cred naming.Credentials) error {
	r.calls = append(r.calls, "bind "+name)
	return ErrReadOnly
}
func (r *pathRoot) Unbind(name string, cred naming.Credentials) error {
	r.calls = append(r.calls, "unbind "+name)
	return nil
}
func (r *pathRoot) CreateContext(name string, cred naming.Credentials) (naming.Context, error) {
	r.calls = append(r.calls, "mkdir "+name)
	return nil, nil
}
func (r *pathRoot) ListPath(path string, cred naming.Credentials) ([]naming.Binding, error) {
	r.calls = append(r.calls, "list "+path)
	return nil, nil
}

func TestPathDirCallsBackWithFullPaths(t *testing.T) {
	root := &pathRoot{}
	d := &PathDir{Root: root, Path: "a/b"}
	_, _ = d.Resolve("c", naming.Root)
	_, _ = d.Resolve("/c/d/", naming.Root)
	if err := d.Bind("c", 1, naming.Root); !errors.Is(err, ErrReadOnly) {
		t.Errorf("Bind did not return the root's refusal: %v", err)
	}
	_ = d.Unbind("c", naming.Root)
	_, _ = d.CreateContext("c", naming.Root)
	_, _ = d.List(naming.Root)
	want := []string{"resolve a/b/c", "resolve a/b/c/d", "bind a/b/c", "unbind a/b/c", "mkdir a/b/c", "list a/b"}
	if len(root.calls) != len(want) {
		t.Fatalf("calls = %q, want %q", root.calls, want)
	}
	for i := range want {
		if root.calls[i] != want[i] {
			t.Errorf("call %d = %q, want %q", i, root.calls[i], want[i])
		}
	}
}
