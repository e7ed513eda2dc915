package fsys

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"springfs/internal/spring"
	"springfs/internal/vm"
)

// lowerFile is a memFile that is the pager for its own binds, the way the
// file a LowerConn binds to is: connections live in a table, and a pager
// its manager is done with leaves it.
type lowerFile struct {
	*memFile
	table *ConnectionTable
	plain bool  // hand out pagers that are not fs_pagers
	fail  error // refuse binds
	binds atomic.Int32
}

func (f *lowerFile) Bind(caller vm.CacheManager, access vm.Rights, offset, length vm.Offset) (vm.CacheRights, error) {
	f.binds.Add(1)
	if f.fail != nil {
		return nil, f.fail
	}
	rights, _, _ := f.table.Bind(caller, 1, func() vm.PagerObject {
		if f.plain {
			return &plainPager{}
		}
		return &leavingPager{f: f}
	})
	return rights, nil
}

type leavingPager struct {
	fakeFsPager
	f *lowerFile
}

func (p *leavingPager) DoneWithPagerObject() { p.f.table.Remove(p.attached.Manager, 1) }

// plainPager is a pager object and nothing more.
type plainPager struct{}

func (*plainPager) PageIn(offset, size vm.Offset, access vm.Rights) ([]byte, error) {
	return make([]byte, size), nil
}
func (*plainPager) PageOut(offset, size vm.Offset, data []byte) error  { return nil }
func (*plainPager) WriteOut(offset, size vm.Offset, data []byte) error { return nil }
func (*plainPager) Sync(offset, size vm.Offset, data []byte) error     { return nil }
func (*plainPager) DoneWithPagerObject()                               {}

// TestLowerConnBindsOnce: concurrent first uses issue one bind and one
// object exchange; the lower layer ends up with the cache object and the one
// rights token type; the pager narrows to fs_pager whether the manager
// shares the pager's domain or not.
func TestLowerConnBindsOnce(t *testing.T) {
	for _, cross := range []bool{false, true} {
		bindsOnce(t, cross)
	}
}

func bindsOnce(t *testing.T, cross bool) {
	node := spring.NewNode("n")
	defer node.Stop()
	pagerDomain := spring.NewDomain(node, "pager")
	mgrDomain := pagerDomain
	if cross {
		mgrDomain = spring.NewDomain(node, "mgr")
	}
	lower := &lowerFile{memFile: &memFile{}, table: NewConnectionTable(pagerDomain)}
	cache := &fakeFsCache{}
	c := &LowerConn{Layer: "layer", ID: 7, Domain: mgrDomain, Lower: lower, Access: vm.RightsRead, Cache: cache}
	if c.FsPager() != nil {
		t.Error("an fs_pager before any bind")
	}

	pagers := make([]vm.PagerObject, 32)
	var wg sync.WaitGroup
	for i := range pagers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c.Pager()
			if err != nil {
				t.Errorf("Pager: %v", err)
			}
			pagers[i] = p
		}(i)
	}
	wg.Wait()
	if n := lower.binds.Load(); n != 1 {
		t.Errorf("cross=%v: %d binds, want 1", cross, n)
	}
	for _, p := range pagers {
		if p == nil || p != pagers[0] {
			t.Fatalf("cross=%v: callers got different pagers", cross)
		}
	}
	if data, err := pagers[0].PageIn(0, vm.PageSize, vm.RightsRead); err != nil || len(data) != vm.PageSize {
		t.Errorf("cross=%v: page-in through the connection: %d bytes, %v", cross, len(data), err)
	}
	if c.FsPager() == nil {
		t.Errorf("cross=%v: lower pager did not narrow to fs_pager", cross)
	}
	conns := lower.table.ConnectionsFor(1)
	if len(conns) != 1 || conns[0].Manager != vm.CacheManager(c) {
		t.Fatalf("cross=%v: lower table holds %d connections, want this manager's one", cross, len(conns))
	}
	if want := (vm.RightsToken{ID: 7, Manager: "layer/file7"}); conns[0].Rights != vm.CacheRights(want) {
		t.Errorf("cross=%v: rights = %+v, want %+v", cross, conns[0].Rights, want)
	}
	if conns[0].FsCache == nil || (!cross && conns[0].Cache != vm.CacheObject(cache)) {
		t.Errorf("cross=%v: the lower layer did not get the layer's fs_cache", cross)
	}
}

// TestLowerConnDoneThenRebind: Done closes the lower end and forgets the
// pager, and the next use binds afresh.
func TestLowerConnDoneThenRebind(t *testing.T) {
	node := spring.NewNode("n")
	defer node.Stop()
	d := spring.NewDomain(node, "d")
	lower := &lowerFile{memFile: &memFile{}, table: NewConnectionTable(d)}
	c := &LowerConn{Layer: "layer", ID: 1, Domain: d, Lower: lower, Access: vm.RightsWrite, Cache: vm.NopCache{}}
	c.Done() // nothing bound: nothing to do
	first, err := c.Pager()
	if err != nil {
		t.Fatal(err)
	}
	c.Done()
	if lower.table.Len() != 0 || c.FsPager() != nil {
		t.Errorf("after Done: %d connections below, fs_pager %v", lower.table.Len(), c.FsPager())
	}
	second, err := c.Pager()
	if err != nil {
		t.Fatal(err)
	}
	if second == first || lower.binds.Load() != 2 || lower.table.Len() != 1 {
		t.Errorf("after Done, Pager: same pager %v, %d binds, %d connections; want a new bind",
			second == first, lower.binds.Load(), lower.table.Len())
	}
}

// TestLowerConnWithoutFsPager: a lower pager that is no fs_pager leaves
// FsPager nil (callers use the file interface), and a plain cache object
// handed down keeps the layer out of the attribute protocol.
func TestLowerConnWithoutFsPager(t *testing.T) {
	node := spring.NewNode("n")
	defer node.Stop()
	d := spring.NewDomain(node, "d")
	lower := &lowerFile{memFile: &memFile{}, table: NewConnectionTable(d), plain: true}
	c := &LowerConn{Layer: "layer", ID: 1, Domain: d, Lower: lower, Access: vm.RightsRead, Cache: vm.NopCache{}}
	if p, err := c.Pager(); err != nil || p == nil {
		t.Fatalf("Pager = %v, %v", p, err)
	}
	if fp := c.FsPager(); fp != nil {
		t.Errorf("FsPager = %T, want nil", fp)
	}
	if _, isFs := vm.CacheObject(vm.NopCache{}).(FsCacheObject); isFs {
		t.Error("vm.NopCache narrows to fs_cache")
	}
	if lower.table.HasFsCache(1) {
		t.Error("a manager handing down vm.NopCache counts as an fs_cache")
	}
}

// TestLowerConnBindFailures: a refused bind and a bind that exchanged no
// objects are errors, and the next use tries again.
func TestLowerConnBindFailures(t *testing.T) {
	node := spring.NewNode("n")
	defer node.Stop()
	d := spring.NewDomain(node, "d")
	refused := errors.New("refused")
	lower := &lowerFile{memFile: &memFile{}, table: NewConnectionTable(d), fail: refused}
	c := &LowerConn{Layer: "layer", ID: 1, Domain: d, Lower: lower, Access: vm.RightsRead, Cache: vm.NopCache{}}
	if _, err := c.Pager(); !errors.Is(err, refused) {
		t.Errorf("Pager over a refusing file = %v", err)
	}
	lower.fail = nil
	if _, err := c.Pager(); err != nil {
		t.Errorf("Pager after the file accepts binds = %v", err)
	}
	silent := &LowerConn{Layer: "layer", ID: 2, Domain: d, Lower: &memFile{}, Access: vm.RightsRead, Cache: vm.NopCache{}}
	if p, err := silent.Pager(); err == nil {
		t.Errorf("Pager over a file whose bind exchanges nothing = %v, want an error", p)
	}
}

// appendFile counts the appends that reach it.
type appendFile struct {
	*memFile
	appends int
}

func (f *appendFile) Append(p []byte) (int64, int, error) {
	f.appends++
	l, _ := f.GetLength()
	n, err := f.WriteAt(p, l)
	return l, n, err
}

// TestForwardFileAppendReachesLowerAppender: an append through the wrapper
// is ordered by the lower file, not by the kit's fallback lock.
func TestForwardFileAppendReachesLowerAppender(t *testing.T) {
	lower := &appendFile{memFile: &memFile{}}
	var f File = &ForwardFile{File: lower}
	if _, _, err := Append(f, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if off, n, err := Append(f, []byte("two")); err != nil || off != 3 || n != 3 {
		t.Errorf("second append = %d, %d, %v; want 3, 3", off, n, err)
	}
	if lower.appends != 2 {
		t.Errorf("%d appends reached the lower file's Appender, want 2", lower.appends)
	}
}
