package stripefs

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/stats"
	"springfs/internal/vm"
)

// fakeFS is a minimal in-memory StackableFS used to observe exactly what
// the striping layer asks of its data servers — in particular, that the
// per-server pieces of one extent are in flight simultaneously.
type fakeFS struct {
	name string
	gate *writeGate

	mu    sync.Mutex
	files map[string]*fakeFile
}

func newFakeFS(name string, gate *writeGate) *fakeFS {
	return &fakeFS{name: name, gate: gate, files: make(map[string]*fakeFile)}
}

func (s *fakeFS) FSName() string                       { return s.name }
func (s *fakeFS) StackOn(under fsys.StackableFS) error { return nil }

func (s *fakeFS) Create(name string, cred naming.Credentials) (fsys.File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.files[name]; ok {
		return nil, fmt.Errorf("fakefs: %w: %s", naming.ErrExists, name)
	}
	f := &fakeFile{gate: s.gate}
	s.files[name] = f
	return f, nil
}

func (s *fakeFS) Open(name string, cred naming.Credentials) (fsys.File, error) {
	obj, err := s.Resolve(name, cred)
	if err != nil {
		return nil, err
	}
	return fsys.AsFile(obj)
}

func (s *fakeFS) Remove(name string, cred naming.Credentials) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.files[name]; !ok {
		return fmt.Errorf("fakefs: %w: %s", naming.ErrNotFound, name)
	}
	delete(s.files, name)
	return nil
}

func (s *fakeFS) Rename(oldname, newname string, cred naming.Credentials) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[oldname]
	if !ok {
		return fmt.Errorf("fakefs: %w: %s", naming.ErrNotFound, oldname)
	}
	delete(s.files, oldname)
	s.files[newname] = f
	return nil
}

func (s *fakeFS) SyncFS() error { return nil }

func (s *fakeFS) Resolve(name string, cred naming.Credentials) (naming.Object, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("fakefs: %w: %s", naming.ErrNotFound, name)
	}
	return f, nil
}

func (s *fakeFS) Bind(name string, obj naming.Object, cred naming.Credentials) error {
	return fmt.Errorf("fakefs: bind unsupported")
}

func (s *fakeFS) Unbind(name string, cred naming.Credentials) error {
	return s.Remove(name, cred)
}

func (s *fakeFS) List(cred naming.Credentials) ([]naming.Binding, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []naming.Binding
	for name, f := range s.files {
		out = append(out, naming.Binding{Name: name, Object: f})
	}
	return out, nil
}

func (s *fakeFS) CreateContext(name string, cred naming.Credentials) (naming.Context, error) {
	return nil, fmt.Errorf("fakefs: directories unsupported")
}

// fakeFile is an in-memory file whose writes pass through the gate.
type fakeFile struct {
	gate *writeGate

	mu   sync.Mutex
	data []byte
}

func (f *fakeFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *fakeFile) WriteAt(p []byte, off int64) (int, error) {
	if f.gate != nil {
		if err := f.gate.enter(); err != nil {
			return 0, err
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if need := off + int64(len(p)); need > int64(len(f.data)) {
		f.data = append(f.data, make([]byte, need-int64(len(f.data)))...)
	}
	copy(f.data[off:], p)
	return len(p), nil
}

func (f *fakeFile) Stat() (fsys.Attributes, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return fsys.Attributes{Length: int64(len(f.data))}, nil
}

func (f *fakeFile) Sync() error { return nil }

func (f *fakeFile) Bind(caller vm.CacheManager, access vm.Rights, offset, length vm.Offset) (vm.CacheRights, error) {
	return nil, nil
}

func (f *fakeFile) GetLength() (vm.Offset, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return vm.Offset(len(f.data)), nil
}

func (f *fakeFile) SetLength(l vm.Offset) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case int64(l) < int64(len(f.data)):
		f.data = f.data[:l]
	case int64(l) > int64(len(f.data)):
		f.data = append(f.data, make([]byte, int64(l)-int64(len(f.data)))...)
	}
	return nil
}

// writeGate is a rendezvous barrier: every write entering it blocks until
// `need` writes are in flight at once, then all proceed. An operation that
// fans its pieces out sequentially would deadlock (and fail the timeout),
// so completing at all proves the pieces were concurrent.
type writeGate struct {
	need    int
	timeout time.Duration

	mu      sync.Mutex
	waiting int
	ready   chan struct{}
}

func newWriteGate(need int, timeout time.Duration) *writeGate {
	return &writeGate{need: need, timeout: timeout, ready: make(chan struct{})}
}

func (g *writeGate) enter() error {
	g.mu.Lock()
	g.waiting++
	if g.waiting == g.need {
		close(g.ready)
	}
	ready := g.ready
	g.mu.Unlock()
	select {
	case <-ready:
		return nil
	case <-time.After(g.timeout):
		return fmt.Errorf("writeGate: only %d of %d writes arrived concurrently", g.waiting, g.need)
	}
}

// buildFakeStripe assembles a striping layer over one plain metadata fake
// and K gated data fakes.
func buildFakeStripe(t *testing.T, k int, gate *writeGate) *StripeFS {
	t.Helper()
	st, err := New(nil, "stripe-fake", Options{StripeSize: vm.PageSize})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := st.StackOn(newFakeFS("meta", nil)); err != nil {
		t.Fatalf("StackOn meta: %v", err)
	}
	for i := 0; i < k; i++ {
		if err := st.StackOn(newFakeFS(fmt.Sprintf("data%d", i), gate)); err != nil {
			t.Fatalf("StackOn data%d: %v", i, err)
		}
	}
	return st
}

// TestWriteFansOutConcurrently proves a write spanning K servers issues K
// concurrent per-server calls: each call blocks in the barrier until all K
// are in flight, so the write can only complete if the fan-out is truly
// parallel. The fan-out counters are asserted alongside.
func TestWriteFansOutConcurrently(t *testing.T) {
	const K = 4
	gate := newWriteGate(K, 10*time.Second)
	st := buildFakeStripe(t, K, gate)
	f, err := st.Create("wide.bin", naming.Root)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	opsBefore := stats.Default.Export().Counters["stripe.fanout.ops"]
	callsBefore := stats.Default.Export().Counters["stripe.fanout.calls"]
	buf := make([]byte, K*vm.PageSize) // one stripe per server
	for i := range buf {
		buf[i] = byte(i)
	}
	if _, err := f.WriteAt(buf, 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	snap := stats.Default.Export()
	if ops := snap.Counters["stripe.fanout.ops"] - opsBefore; ops != 1 {
		t.Fatalf("fan-out ops: got %d, want 1", ops)
	}
	if calls := snap.Counters["stripe.fanout.calls"] - callsBefore; calls != K {
		t.Fatalf("fan-out calls: got %d, want %d", calls, K)
	}
}

// TestPageOutFansOutConcurrently proves the pager path does the same: a
// page-out of a 64-page extent spanning K servers issues K concurrent
// per-server writes.
func TestPageOutFansOutConcurrently(t *testing.T) {
	const K = 4
	const pages = 64
	gate := newWriteGate(K, 10*time.Second)
	st := buildFakeStripe(t, K, gate)
	f, err := st.Create("extent.bin", naming.Root)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	callsBefore := stats.Default.Export().Counters["stripe.fanout.calls"]
	sf := f.(*stripeFile)
	pager := &fsys.FilePager{File: sf, In: sf.pageIn, Out: sf.pageOut}
	data := make([]byte, pages*vm.PageSize)
	for i := range data {
		data[i] = byte(i % 251)
	}
	if err := pager.PageOut(0, vm.Offset(len(data)), data); err != nil {
		t.Fatalf("PageOut: %v", err)
	}
	if calls := stats.Default.Export().Counters["stripe.fanout.calls"] - callsBefore; calls != K {
		t.Fatalf("fan-out calls: got %d, want %d", calls, K)
	}
	// And the extent pages back in intact, reassembled from the K objects.
	in, err := pager.PageIn(0, vm.Offset(len(data)), vm.RightsRead)
	if err != nil {
		t.Fatalf("PageIn: %v", err)
	}
	if !bytes.Equal(in, data) {
		t.Fatalf("PageIn returned different bytes")
	}
}

// TestHotPathsAddNoAllocation guards the two per-call paths the layer kit
// sits on: resolving a file whose wrapper exists costs what reading its
// layout costs — the handle-table hit allocates nothing — and the health
// check in front of a cached object handle is an atomic load.
func TestHotPathsAddNoAllocation(t *testing.T) {
	meta := sfsOn(t, newVolume(t), "alloc-m")
	s := stripeOver(t, "alloc", meta, []fsys.StackableFS{sfsOn(t, newVolume(t), "alloc-d0")})
	f, err := s.Create("file", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	layout := testing.AllocsPerRun(200, func() {
		if _, err := s.layoutAt(meta, "file", naming.Root); err != nil {
			t.Fatal(err)
		}
	})
	resolve := testing.AllocsPerRun(200, func() {
		if _, err := s.Resolve("file", naming.Root); err != nil {
			t.Fatal(err)
		}
	})
	if resolve > layout {
		t.Errorf("allocations per call: reading the layout %.0f, StripeFS.Resolve %.0f; the handle table must add none", layout, resolve)
	}
	handle := testing.AllocsPerRun(200, func() {
		if _, err := f.(*stripeFile).handle(0, false); err != nil {
			t.Fatal(err)
		}
	})
	if handle != 0 {
		t.Errorf("a cached object handle costs %.0f allocations", handle)
	}
}
