package coherency

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"springfs/internal/fsys"
	"springfs/internal/spring"
	"springfs/internal/stats"
	"springfs/internal/vm"
)

// fakeLower is a one-file lower layer whose pager the test scripts: page-ins
// and syncs can be made to fail, and a sync can be held inside the "device"
// until the test lets it land.
type fakeLower struct {
	mu      sync.Mutex
	data    []byte
	fail    error              // returned by PageIn and Sync when set
	entered chan vm.Offset     // receives the offset of every Sync as it arrives
	gate    map[byte]chan bool // a Sync whose first byte is a key waits on it
}

var (
	_ fsys.File      = (*fakeLower)(nil)
	_ vm.PagerObject = fakeLowerPager{}
)

func (l *fakeLower) Bind(caller vm.CacheManager, _ vm.Rights, _, _ vm.Offset) (vm.CacheRights, error) {
	_, rights := caller.NewConnection(fakeLowerPager{l})
	return rights, nil
}
func (l *fakeLower) GetLength() (vm.Offset, error)      { return vm.Offset(len(l.data)), nil }
func (l *fakeLower) SetLength(vm.Offset) error          { return nil }
func (l *fakeLower) ReadAt([]byte, int64) (int, error)  { return 0, errors.New("unused") }
func (l *fakeLower) WriteAt([]byte, int64) (int, error) { return 0, errors.New("unused") }
func (l *fakeLower) Sync() error                        { return nil }
func (l *fakeLower) Stat() (fsys.Attributes, error) {
	return fsys.Attributes{Length: vm.Offset(len(l.data))}, nil
}

// fakeLowerPager is the pager object fakeLower hands to its cache manager.
type fakeLowerPager struct{ l *fakeLower }

func (p fakeLowerPager) PageIn(offset, size vm.Offset, _ vm.Rights) ([]byte, error) {
	p.l.mu.Lock()
	defer p.l.mu.Unlock()
	if p.l.fail != nil {
		return nil, p.l.fail
	}
	return bytes.Clone(p.l.data[offset : offset+size]), nil
}
func (p fakeLowerPager) PageOut(o, s vm.Offset, d []byte) error  { return p.Sync(o, s, d) }
func (p fakeLowerPager) WriteOut(o, s vm.Offset, d []byte) error { return p.Sync(o, s, d) }
func (p fakeLowerPager) DoneWithPagerObject()                    {}

func (p fakeLowerPager) Sync(offset, size vm.Offset, data []byte) error {
	l := p.l
	if l.entered != nil {
		l.entered <- offset
	}
	l.mu.Lock()
	gate, fail := l.gate[data[0]], l.fail
	l.mu.Unlock()
	if gate != nil {
		<-gate
	}
	if fail != nil {
		return fail
	}
	l.mu.Lock()
	copy(l.data[offset:], data[:size])
	l.mu.Unlock()
	return nil
}

func newFakeLowerFile(t *testing.T, l *fakeLower) *cohFile {
	t.Helper()
	node := spring.NewNode("n")
	t.Cleanup(node.Stop)
	d := spring.NewDomain(node, "coh")
	coh := New(d, vm.New(d, "vmm"), "coh")
	return coh.newFile(l).(*cohFile)
}

// TestWriteThroughsOfOneBlockLandInOrder: two write-throughs of one block
// must reach the layer below in version order. The first is held inside the
// lower layer while a newer version is stored and written through; without
// ordering the newer one lands, its dirty bit is cleared, and then the stale
// one overwrites it — the block reads clean here and old below, for good.
func TestWriteThroughsOfOneBlockLandInOrder(t *testing.T) {
	l := &fakeLower{
		data:    make([]byte, BlockSize),
		entered: make(chan vm.Offset, 4),
		gate:    map[byte]chan bool{0x14: make(chan bool)},
	}
	f := newFakeLowerFile(t, l)
	conn := &fsys.Connection{}
	f.storeBlock(conn, 0, block(0x14), int(vm.RightsWrite))
	first := make(chan error, 1)
	go func() { first <- f.writeThroughRuns([]int64{0}) }()
	<-l.entered // the 0x14 write is inside the lower layer

	f.storeBlock(conn, 0, block(0x15), int(vm.RightsWrite))
	second := make(chan error, 1)
	go func() { second <- f.writeThroughRuns([]int64{0}) }()
	select {
	case <-l.entered:
		t.Error("a second write of the block went below while the first was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(l.gate[0x14])
	for _, done := range []chan error{first, second} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if l.data[0] != 0x15 {
		t.Errorf("below: %#x, want the newer 0x15", l.data[0])
	}
	b := f.acquire(0)
	if b.dirty || b.writing || b.data[0] != 0x15 {
		t.Errorf("block: dirty=%v writing=%v data=%#x, want clean 0x15", b.dirty, b.writing, b.data[0])
	}
	f.release(b)
}

// TestFailedLowerCallsAreTimed: a lower page-in or write-through that fails
// is still a sample of coh.page_in / coh.write_through — the slowest calls
// (a lower pager that timed out) must not be the ones missing from a trace —
// and a failed write-through leaves its blocks dirty and writable again.
func TestFailedLowerCallsAreTimed(t *testing.T) {
	boom := errors.New("lower layer timed out")
	l := &fakeLower{data: make([]byte, 4*BlockSize), fail: boom}
	f := newFakeLowerFile(t, l)
	pager := &cohPager{file: f, conn: &fsys.Connection{}}
	pageIns := stats.Default.Histogram("coh.page_in").Count()
	writes := stats.Default.Histogram("coh.write_through").Count()

	if _, err := pager.PageIn(0, BlockSize, vm.RightsRead); !errors.Is(err, boom) {
		t.Fatalf("page-in = %v, want the lower error", err)
	}
	if _, err := pager.PageInHint(0, BlockSize, 4*BlockSize, vm.RightsRead); !errors.Is(err, boom) {
		t.Fatalf("hinted page-in = %v, want the lower error", err)
	}
	// One failed single-block fetch, then a failed bulk prefetch followed by
	// the single-block fetch it falls back to.
	if got := stats.Default.Histogram("coh.page_in").Count() - pageIns; got != 3 {
		t.Errorf("coh.page_in recorded %d failed lower page-ins, want 3", got)
	}
	if err := pager.Sync(0, 2*BlockSize, bytes.Repeat([]byte{7}, 2*BlockSize)); !errors.Is(err, boom) {
		t.Fatalf("sync = %v, want the lower error", err)
	}
	if got := stats.Default.Histogram("coh.write_through").Count() - writes; got != 1 {
		t.Errorf("coh.write_through recorded %d failed runs, want 1", got)
	}
	l.mu.Lock()
	l.fail = nil
	l.mu.Unlock()
	if err := f.flushAll(); err != nil {
		t.Fatalf("flush after the lower layer recovered: %v", err)
	}
	if !bytes.Equal(l.data[:2*BlockSize], bytes.Repeat([]byte{7}, 2*BlockSize)) {
		t.Error("the blocks of the failed write-through were not written once the lower layer recovered")
	}
}
