package vm

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"
)

// grantPager is an in-process pager for the write-grant tests. It keeps
// data-carrying page-ins and grants apart, can play a pager that never heard
// of RightsNoData, fails on demand, and runs a hook inside every page-in
// with no lock held — where the tests deliver coherency actions that cross
// a request in flight.
type grantPager struct {
	mu    sync.Mutex
	store map[int64][]byte
	cache CacheObject

	dataIns []pagerCall // page-ins answered with data
	grants  []pagerCall // page-ins answered with the grant alone

	ignoreNoData bool
	fail         error
	onPageIn     func(offset, size Offset, access Rights)
}

type pagerCall struct{ offset, size Offset }

func newGrantPager() *grantPager { return &grantPager{store: make(map[int64][]byte)} }

func (p *grantPager) Bind(caller CacheManager, access Rights, offset, length Offset) (CacheRights, error) {
	cache, rights := caller.NewConnection(p)
	p.cache = cache
	return rights, nil
}
func (p *grantPager) GetLength() (Offset, error) { return 0, nil }
func (p *grantPager) SetLength(Offset) error     { return nil }

func (p *grantPager) PageIn(offset, size Offset, access Rights) ([]byte, error) {
	p.mu.Lock()
	hook, fail := p.onPageIn, p.fail
	p.mu.Unlock()
	if hook != nil {
		hook(offset, size, access)
	}
	if fail != nil {
		return nil, fail
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if access.NoData() && !p.ignoreNoData {
		p.grants = append(p.grants, pagerCall{offset, size})
		return nil, nil
	}
	p.dataIns = append(p.dataIns, pagerCall{offset, size})
	out := make([]byte, size)
	for pn := offset / PageSize; pn*PageSize < offset+size; pn++ {
		copy(out[pn*PageSize-offset:], p.store[pn])
	}
	return out, nil
}

func (p *grantPager) PageOut(offset, size Offset, data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := Offset(0); i < size; i += PageSize {
		p.store[(offset+i)/PageSize] = append([]byte(nil), data[i:i+PageSize]...)
	}
	return nil
}
func (p *grantPager) WriteOut(o, s Offset, d []byte) error { return p.PageOut(o, s, d) }
func (p *grantPager) Sync(o, s Offset, d []byte) error     { return p.PageOut(o, s, d) }
func (p *grantPager) DoneWithPagerObject()                 {}

func (p *grantPager) set(f func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f()
}

func (p *grantPager) counts() (dataIns, grants int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.dataIns), len(p.grants)
}

// fill seeds the backing store so that page pn reads as pn+1 everywhere.
func (p *grantPager) fill(pages int64) {
	for pn := int64(0); pn < pages; pn++ {
		p.store[pn] = bytes.Repeat([]byte{byte(pn + 1)}, PageSize)
	}
}

func newGrantRig(t *testing.T) (*grantPager, *Mapping) {
	t.Helper()
	r := newRig(t)
	p := newGrantPager()
	m, err := r.vmm.Map(p, RightsWrite)
	if err != nil {
		t.Fatal(err)
	}
	return p, m
}

// userBytes is a buffer of n pages whose every byte differs from anything
// fill leaves in the store.
func userBytes(pages int) []byte {
	b := make([]byte, pages*PageSize)
	for i := range b {
		b[i] = byte(0x80 | i%113)
	}
	return b
}

// noFaulting fails the test if any placeholder is left in the cache.
func noFaulting(t *testing.T, fc *FileCache) {
	t.Helper()
	fc.mu.RLock()
	defer fc.mu.RUnlock()
	for pn, p := range fc.pages {
		if p.state != pagePresent {
			t.Errorf("page %d left in state %d", pn, p.state)
		}
	}
}

// storedAfterSync syncs the mapping and returns what the pager now holds
// for [0, pages).
func storedAfterSync(t *testing.T, p *grantPager, m *Mapping, pages int) []byte {
	t.Helper()
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]byte, pages*PageSize)
	for pn := 0; pn < pages; pn++ {
		copy(out[pn*PageSize:], p.store[int64(pn)])
	}
	return out
}

func TestGrantColdWholePageWriteMovesNoData(t *testing.T) {
	p, m := newGrantRig(t)
	p.fill(4)
	pageIns, misses := m.fc.vmm.PageIns.Value(), missesStat.Value()
	grants, granted := grantsStat.Value(), grantPagesStat.Value()

	user := userBytes(1)
	if n, err := m.WriteAt(user, 2*PageSize); err != nil || n != PageSize {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	if d, g := p.counts(); d != 0 || g != 1 {
		t.Errorf("cold whole-page write: %d data page-ins, %d grants; want 0, 1", d, g)
	}
	if r, ok := m.fc.PageRights(2); !ok || !r.CanWrite() {
		t.Errorf("page 2 rights = %v present=%v, want read-write", r, ok)
	}
	if got := m.fc.vmm.PageIns.Value() - pageIns; got != 0 {
		t.Errorf("VMM.PageIns moved by %d on a grant", got)
	}
	if got := missesStat.Value() - misses; got != 0 {
		t.Errorf("vmm.misses moved by %d on a grant", got)
	}
	if g, gp := grantsStat.Value()-grants, grantPagesStat.Value()-granted; g != 1 || gp != 1 {
		t.Errorf("vmm.grants +%d, vmm.grant.pages +%d; want +1, +1", g, gp)
	}

	// A partial page still needs the bytes it keeps.
	if _, err := m.WriteAt([]byte("partial"), PageSize+10); err != nil {
		t.Fatal(err)
	}
	if d, g := p.counts(); d != 1 || g != 1 {
		t.Errorf("after a partial-page write: %d data page-ins, %d grants; want 1, 1", d, g)
	}

	got := storedAfterSync(t, p, m, 4)
	want := make([]byte, 4*PageSize)
	for pn := 0; pn < 4; pn++ {
		copy(want[pn*PageSize:], bytes.Repeat([]byte{byte(pn + 1)}, PageSize))
	}
	copy(want[2*PageSize:], user)
	copy(want[PageSize+10:], "partial")
	if !bytes.Equal(got, want) {
		t.Error("store after sync differs from the model")
	}
}

func TestGrantCoversRunInOneCall(t *testing.T) {
	p, m := newGrantRig(t)
	user := userBytes(16)
	if _, err := m.WriteAt(user, 8*PageSize); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	calls := append([]pagerCall(nil), p.grants...)
	dataIns := len(p.dataIns)
	p.mu.Unlock()
	if dataIns != 0 || len(calls) != 1 || calls[0] != (pagerCall{8 * PageSize, 16 * PageSize}) {
		t.Fatalf("64 KiB cold write: %d data page-ins, grants %v; want one grant over 16 pages", dataIns, calls)
	}
	got := storedAfterSync(t, p, m, 24)
	if !bytes.Equal(got[8*PageSize:], user) {
		t.Error("the 16 pages do not hold the user's bytes")
	}

	// An unaligned write grants its whole pages and faults its two ends; a
	// run is bounded by the write-back extent, and stops at a page that is
	// already writable.
	p, m = newGrantRig(t)
	m.fc.vmm.SetMaxExtentPages(4)
	if _, err := m.WriteAt(make([]byte, PageSize), 6*PageSize); err != nil { // page 6 writable
		t.Fatal(err)
	}
	p.set(func() { p.grants, p.dataIns = nil, nil })
	if _, err := m.WriteAt(userBytes(10), 100); err != nil { // pages 0..10, ends partial
		t.Fatal(err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	wantGrants := []pagerCall{{1 * PageSize, 4 * PageSize}, {5 * PageSize, PageSize}, {7 * PageSize, 3 * PageSize}}
	wantData := []pagerCall{{0, PageSize}, {10 * PageSize, PageSize}}
	if !slices.Equal(p.grants, wantGrants) || !slices.Equal(p.dataIns, wantData) {
		t.Errorf("grants %v data %v; want %v and %v", p.grants, p.dataIns, wantGrants, wantData)
	}
}

// TestGrantRevokedMidFlightIsRetried delivers a coherency action between
// the grant request and the install. The epoch moves, the grant is given
// up from the crossed page on, and the write is completed by the ordinary
// protocol: every byte lands exactly once, nothing is left faulting.
func TestGrantRevokedMidFlightIsRetried(t *testing.T) {
	actions := map[string]func(c CacheObject, off, size Offset){
		"FlushBack":   func(c CacheObject, off, size Offset) { c.FlushBack(off, size) },
		"DeleteRange": func(c CacheObject, off, size Offset) { c.DeleteRange(off, size) },
		"DenyWrites":  func(c CacheObject, off, size Offset) { c.DenyWrites(off, size) },
	}
	for name, act := range actions {
		for _, crossed := range []int64{0, 5} {
			p, m := newGrantRig(t)
			p.fill(16)
			fired := false
			p.set(func() {
				p.onPageIn = func(offset, size Offset, access Rights) {
					if access.NoData() && !fired {
						fired = true
						act(p.cache, crossed*PageSize, PageSize)
					}
				}
			})
			user := userBytes(16)
			if n, err := m.WriteAt(user, 0); err != nil || n != len(user) {
				t.Fatalf("%s@%d: WriteAt = %d, %v", name, crossed, n, err)
			}
			noFaulting(t, m.fc)
			p.mu.Lock()
			grants, dataIns := append([]pagerCall(nil), p.grants...), append([]pagerCall(nil), p.dataIns...)
			p.mu.Unlock()
			// The first grant covers all 16 and survives up to the crossed
			// page. From there a second grant finishes the run — unless the
			// first made no progress at all, in which case that page takes
			// the ordinary data-carrying fault first.
			wantGrants := []pagerCall{{0, 16 * PageSize}, {5 * PageSize, 11 * PageSize}}
			var wantData []pagerCall
			if crossed == 0 {
				wantGrants[1] = pagerCall{1 * PageSize, 15 * PageSize}
				wantData = []pagerCall{{0, PageSize}}
			}
			if !slices.Equal(grants, wantGrants) || !slices.Equal(dataIns, wantData) {
				t.Errorf("%s@%d: grants %v data %v; want %v and %v", name, crossed, grants, dataIns, wantGrants, wantData)
			}
			// Exactly once: one modified extent comes back, holding the
			// user's bytes.
			out := p.cache.FlushBack(0, 16*PageSize)
			if len(out) != 1 || out[0].Offset != 0 || !bytes.Equal(out[0].Bytes, user) {
				t.Errorf("%s@%d: flush-back returned %d extents, not the user's 16 pages once", name, crossed, len(out))
			}
		}
	}
}

// TestGrantPagerErrorAbortsRun fails the grant and checks that every
// placeholder of the run is gone and a reader that was waiting on one is
// woken to fault for itself.
func TestGrantPagerErrorAbortsRun(t *testing.T) {
	p, m := newGrantRig(t)
	p.fill(8)
	boom := errors.New("pager down")
	readerUp := make(chan struct{})
	readerDone := make(chan error, 1)
	p.set(func() {
		p.fail = boom
		p.onPageIn = func(offset, size Offset, access Rights) {
			if !access.NoData() {
				return
			}
			// The placeholders are in; park a reader on one of them.
			go func() {
				close(readerUp)
				_, err := m.ReadAt(make([]byte, 8), 3*PageSize)
				readerDone <- err
			}()
			<-readerUp
			time.Sleep(10 * time.Millisecond) // let it reach the wait; not needed for correctness
			p.set(func() { p.onPageIn = nil })
		}
	})
	if n, err := m.WriteAt(userBytes(8), 0); !errors.Is(err, boom) || n != 0 {
		t.Fatalf("WriteAt = %d, %v; want 0 and the pager's error", n, err)
	}
	select {
	case err := <-readerDone:
		// Woken, it faulted for itself and met the same dead pager.
		if !errors.Is(err, boom) {
			t.Errorf("parked reader: %v, want the pager's error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader parked on an aborted placeholder was never woken")
	}
	m.fc.mu.RLock()
	left := len(m.fc.pages)
	m.fc.mu.RUnlock()
	if left != 0 {
		t.Errorf("%d pages left after an aborted grant", left)
	}
}

// TestGrantIgnoredByPagerStillYieldsUserBytes runs against a pager that
// does not know RightsNoData and answers with the data.
func TestGrantIgnoredByPagerStillYieldsUserBytes(t *testing.T) {
	p, m := newGrantRig(t)
	p.fill(4)
	p.set(func() { p.ignoreNoData = true })
	pageIns := m.fc.vmm.PageIns.Value()
	user := userBytes(4)
	if _, err := m.WriteAt(user, 0); err != nil {
		t.Fatal(err)
	}
	if d, g := p.counts(); d != 1 || g != 0 {
		t.Errorf("%d data page-ins, %d grants; want the one call answered with data", d, g)
	}
	if got := m.fc.vmm.PageIns.Value() - pageIns; got != 1 {
		t.Errorf("VMM.PageIns moved by %d; a page-in that moved data counts", got)
	}
	got := make([]byte, len(user))
	if _, err := m.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, user) || !bytes.Equal(storedAfterSync(t, p, m, 4), user) {
		t.Error("pages hold the pager's stale data, not the user's bytes")
	}
}

// TestUpgradeKeepsBytesInPlace: a resident read-only page that takes a
// write keeps its page object and its bytes; only the grant crosses to the
// pager. If a coherency action crosses the grant, the full re-fault runs.
func TestUpgradeKeepsBytesInPlace(t *testing.T) {
	p, m := newGrantRig(t)
	p.fill(2)
	buf := make([]byte, 8)
	for pn := int64(0); pn < 2; pn++ {
		if _, err := m.ReadAt(buf, pn*PageSize); err != nil {
			t.Fatal(err)
		}
	}
	m.fc.mu.RLock()
	before := m.fc.pages[0]
	m.fc.mu.RUnlock()
	if r, _ := m.fc.PageRights(0); r != RightsRead {
		t.Fatalf("page 0 rights after a read = %v", r)
	}
	if _, err := m.WriteAt([]byte("patch"), 100); err != nil {
		t.Fatal(err)
	}
	if d, g := p.counts(); d != 2 || g != 1 {
		t.Errorf("upgrade: %d data page-ins, %d grants; want the 2 reads and 1 grant", d, g)
	}
	m.fc.mu.RLock()
	after := m.fc.pages[0]
	m.fc.mu.RUnlock()
	if after != before || !after.rights.CanWrite() || !after.dirty {
		t.Errorf("page 0 was replaced or not upgraded in place (same=%v rights=%v dirty=%v)", after == before, after.rights, after.dirty)
	}
	want := bytes.Repeat([]byte{1}, PageSize)
	copy(want[100:], "patch")
	got := make([]byte, PageSize)
	if _, err := m.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("upgraded page lost its bytes")
	}

	// A whole-page overwrite of the other read-only page is also in place.
	user := userBytes(1)
	if _, err := m.WriteAt(user, PageSize); err != nil {
		t.Fatal(err)
	}
	if d, g := p.counts(); d != 2 || g != 2 {
		t.Errorf("overwrite of a read-only page: %d data page-ins, %d grants; want 2, 2", d, g)
	}

	// Crossed by DenyWrites: nothing about a read-only page changes except
	// its epoch, and the grant must still be given up.
	for _, d := range p.cache.DenyWrites(0, PageSize) {
		if err := p.PageOut(d.Offset, Offset(len(d.Bytes)), d.Bytes); err != nil {
			t.Fatal(err)
		}
	}
	p.set(func() {
		p.onPageIn = func(offset, size Offset, access Rights) {
			if access.NoData() {
				p.cache.DenyWrites(0, PageSize)
			}
		}
	})
	if _, err := m.WriteAt([]byte("again"), 200); err != nil {
		t.Fatal(err)
	}
	if d, g := p.counts(); d != 3 || g != 3 {
		t.Errorf("crossed upgrade: %d data page-ins, %d grants; want 3, 3 (grant given up, full re-fault)", d, g)
	}
	copy(want[200:], "again")
	if _, err := m.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("page 0 after the crossed upgrade differs from the model")
	}
	noFaulting(t, m.fc)
}
