package vm

import (
	"container/list"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"springfs/internal/spring"
	"springfs/internal/stats"
)

// VMM is the per-node virtual memory manager. It is responsible for
// mapping, sharing, and caching of local memory, and depends on external
// pagers for backing store and inter-machine coherency. The VMM is a cache
// manager: it implements cache objects that pagers invoke for coherency
// actions.
type VMM struct {
	name   string
	domain *spring.Domain

	mu     sync.Mutex
	caches map[uint64]*FileCache
	nextID atomic.Uint64

	// Page accounting for eviction. maxPages == 0 means unlimited. Both
	// are atomics so the hot paths can check the eviction budget without
	// taking any lock.
	maxPages  atomic.Int64
	pageCount atomic.Int64

	// The eviction clock (see maybeEvict): an approximate-LRU ring of all
	// resident pages. emu is taken only when a page is installed, removed,
	// or swept — never on a cached hit, which records recency by setting
	// the per-page accessed bit (page.accessed) lock-free. emu is strictly
	// inner to any FileCache mutex.
	emu        sync.Mutex
	clock      *list.List // front = most recently installed or spared
	clockIndex map[lruKey]*list.Element

	// Write-back clustering knobs (flush.go). Zero means the default.
	maxExtent    atomic.Int64 // pages coalesced into one write-back extent
	flushWorkers atomic.Int64 // concurrent extent writers per flush

	// Counters observable by tests and the bench harness.
	PageIns   stats.Counter
	PageOuts  stats.Counter
	Evictions stats.Counter
}

type lruKey struct {
	fc *FileCache
	pn int64
}

// clockEntry is one resident page on the eviction clock. It carries the
// page identity so the sweep can test-and-clear the accessed bit without
// taking the owning cache's lock, and so a failed-eviction rotation can
// verify it is still rotating the element it examined rather than a
// re-added one (see maybeEvict).
type clockEntry struct {
	key lruKey
	p   *page
}

// Instrumented operations (docs/OBSERVABILITY.md). These are fault-path
// sites — a cached read or write touches none of them — so they are
// always-on: the cost of two clock reads vanishes against a page-in. Any
// domain crossing the pager invocation makes appears as a nested
// spring.* span, so these record with the direct boundary.
var (
	opBind    = stats.NewOp("vmm.bind", stats.BoundaryDirect)
	opPageIn  = stats.NewOp("vmm.page_in", stats.BoundaryDirect)
	opPageOut = stats.NewOp("vmm.page_out", stats.BoundaryDirect)
)

// Cached-hit-path counters, registered eagerly so `springsh stats` shows
// them even before traffic arrives. These are the scaling story of the hit
// path: hits/misses give the cache ratio, touches.coalesced counts hits
// that found the accessed bit already set (the touches the old exact LRU
// would have serialized on a global mutex for), and the lru.* sweep
// counters expose how hard eviction is working.
var (
	hitsStat           = stats.Default.Counter("vmm.hits")
	missesStat         = stats.Default.Counter("vmm.misses")
	touchCoalescedStat = stats.Default.Counter("vmm.lru.touches.coalesced")
	sweepsStat         = stats.Default.Counter("vmm.lru.sweeps")
	secondChancesStat  = stats.Default.Counter("vmm.lru.second_chances")
	rotationsStat      = stats.Default.Counter("vmm.lru.rotations")
	// Write grants (see FileCache.grant): pager calls that asked for write
	// access without the data, and the pages they made writable. They are
	// neither hits nor misses — a miss is a page-in that moved data.
	grantsStat     = stats.Default.Counter("vmm.grants")
	grantPagesStat = stats.Default.Counter("vmm.grant.pages")
)

// New creates a VMM served by domain.
func New(domain *spring.Domain, name string) *VMM {
	return &VMM{
		name:       name,
		domain:     domain,
		caches:     make(map[uint64]*FileCache),
		clock:      list.New(),
		clockIndex: make(map[lruKey]*list.Element),
	}
}

// SetMaxPages bounds the number of resident pages; 0 disables eviction.
func (v *VMM) SetMaxPages(n int) {
	v.maxPages.Store(int64(n))
}

// SetMaxExtentPages bounds how many contiguous dirty pages are coalesced
// into a single write-back call (flush.go); n <= 0 restores the default,
// n == 1 disables clustering.
func (v *VMM) SetMaxExtentPages(n int) {
	v.maxExtent.Store(int64(n))
}

// SetFlushWorkers bounds how many extents a flush writes back concurrently;
// n <= 0 restores the default, n == 1 makes flushes sequential.
func (v *VMM) SetFlushWorkers(n int) {
	v.flushWorkers.Store(int64(n))
}

// maxExtentPageCount returns the effective clustering bound.
func (v *VMM) maxExtentPageCount() int {
	if n := v.maxExtent.Load(); n > 0 {
		return int(n)
	}
	return DefaultMaxExtentPages
}

// flushWorkerCount returns the effective write-back concurrency.
func (v *VMM) flushWorkerCount() int {
	if n := v.flushWorkers.Load(); n > 0 {
		return int(n)
	}
	return DefaultFlushWorkers
}

// ResidentPages returns the number of pages currently cached by the VMM.
func (v *VMM) ResidentPages() int {
	return int(v.pageCount.Load())
}

// ManagerName implements CacheManager.
func (v *VMM) ManagerName() string { return v.name }

// ManagerDomain implements CacheManager.
func (v *VMM) ManagerDomain() *spring.Domain { return v.domain }

// NewConnection implements CacheManager: it sets up the VMM half of a
// pager-cache connection and returns the VMM's cache object plus a fresh
// cache-rights token identifying the connection.
func (v *VMM) NewConnection(pager PagerObject) (CacheObject, CacheRights) {
	fc := &FileCache{
		vmm:   v,
		pager: pager,
		id:    v.nextID.Add(1),
		pages: make(map[int64]*page),
	}
	fc.cond = sync.NewCond(&fc.mu)
	v.mu.Lock()
	v.caches[fc.id] = fc
	v.mu.Unlock()
	return (*vmmCacheObject)(fc), RightsToken{ID: fc.id, Manager: v.name}
}

// Map maps a memory object with the given access. The VMM invokes the bind
// operation on the memory object; the pager either reuses an existing
// pager-cache connection (two equivalent memory objects share cached
// pages) or performs the object exchange through NewConnection.
func (v *VMM) Map(mobj MemoryObject, access Rights) (*Mapping, error) {
	t := opBind.Start()
	rights, err := mobj.Bind(v, access, 0, 0)
	opBind.End(t, 0)
	if err != nil {
		return nil, fmt.Errorf("vm: bind failed: %w", err)
	}
	v.mu.Lock()
	fc, ok := v.caches[rights.RightsID()]
	v.mu.Unlock()
	if !ok || rights.ManagerName() != v.name {
		return nil, fmt.Errorf("%w: id=%d manager=%q", ErrBadRights, rights.RightsID(), rights.ManagerName())
	}
	return &Mapping{fc: fc, access: access, mobj: mobj}, nil
}

// noteInstalled adds (fc, pn) -> p to the eviction clock, or — when the
// slot is already tracked because ZeroFill/Populate replaced the page
// object in place — updates the tracked identity and moves the slot to the
// front. Called with fc.mu held; v.emu is strictly inner to any FileCache
// mutex. This is the only LRU bookkeeping left on any page path: cached
// hits do not come here (they set page.accessed instead), so installs and
// removals are the only operations that contend on emu.
func (v *VMM) noteInstalled(fc *FileCache, pn int64, p *page) {
	v.emu.Lock()
	defer v.emu.Unlock()
	k := lruKey{fc, pn}
	if el, ok := v.clockIndex[k]; ok {
		el.Value.(*clockEntry).p = p
		v.clock.MoveToFront(el)
		return
	}
	v.clockIndex[k] = v.clock.PushFront(&clockEntry{key: k, p: p})
	v.pageCount.Add(1)
}

// forget removes (fc, pn) from the eviction clock. Called with fc.mu held.
func (v *VMM) forget(fc *FileCache, pn int64) {
	v.emu.Lock()
	defer v.emu.Unlock()
	k := lruKey{fc, pn}
	if el, ok := v.clockIndex[k]; ok {
		v.clock.Remove(el)
		delete(v.clockIndex, k)
		v.pageCount.Add(-1)
	}
}

// maybeEvict evicts pages until the resident count is within budget, using
// a second-chance (CLOCK) sweep over the resident ring. It must be called
// with no FileCache mutex held.
//
// The in-budget check is two atomic loads, so the common case costs
// nothing and takes no lock. The sweep examines the ring from the back —
// least recently installed or spared. A page whose accessed bit is set was
// hit since the hand last passed: it is spared, its bit cleared, and it
// rotates to the front (the "second chance"). A page with the bit clear is
// evicted. Exactness is traded away deliberately: cached hits record
// recency as one atomic bit instead of a list move under a global mutex,
// so the ring order is only approximately LRU — which is all eviction
// needs, and the coherency protocol never depends on it (DESIGN.md).
//
// The scan is bounded to one pass over the resident set: a page whose
// eviction fails (dirty with a persistently failing page-out — e.g. a dead
// backing link — or already gone) is rotated to the LRU front and not
// retried, so a cache full of unevictable pages costs one sweep instead of
// spinning forever. The budget may be exceeded until evictions succeed
// again; that is the graceful outcome.
func (v *VMM) maybeEvict() {
	max := v.maxPages.Load()
	if max == 0 || v.pageCount.Load() <= max {
		return
	}
	sweepsStat.Inc()
	v.emu.Lock()
	budget := v.clock.Len()
	v.emu.Unlock()
	for ; budget > 0; budget-- {
		max = v.maxPages.Load()
		if max == 0 || v.pageCount.Load() <= max {
			return
		}
		v.emu.Lock()
		el := v.clock.Back()
		if el == nil {
			v.emu.Unlock()
			return
		}
		ent := el.Value.(*clockEntry)
		if ent.p.accessed.Swap(false) {
			// Hit since the hand last passed: spare it this pass.
			v.clock.MoveToFront(el)
			v.emu.Unlock()
			secondChancesStat.Inc()
			continue
		}
		k := ent.key
		v.emu.Unlock()
		if !k.fc.evict(k.pn) {
			v.rotateFailedVictim(el, k)
		}
	}
}

// rotateFailedVictim moves a victim whose eviction failed (busy faulting,
// already gone, or a dead backing store) to the clock front so the sweep
// does not retry it this pass. It rotates only if the slot still holds
// the exact element the sweep examined: the page may have been evicted by
// a concurrent sweep and re-faulted mid-call, and demoting that fresh
// element would make the just-touched page the next victim. Reports
// whether it rotated.
func (v *VMM) rotateFailedVictim(el *list.Element, k lruKey) bool {
	v.emu.Lock()
	defer v.emu.Unlock()
	el2, ok := v.clockIndex[k]
	if !ok || el2 != el {
		return false
	}
	v.clock.MoveToFront(el2)
	rotationsStat.Inc()
	return true
}

// pageState tracks the fault protocol of one cached page.
type pageState int

const (
	pagePresent pageState = iota
	pageFaulting
	// pageGone marks a page object that was removed from the cache while a
	// reference to it may still be live: a reader or writer that resolved
	// its fault against this object re-validates under the lock, sees the
	// state, and re-faults instead of touching an orphaned buffer. With
	// pooled page buffers this is also a use-after-recycle guard: a page's
	// backing array returns to the pool only after the exclusive lock has
	// marked it gone, and every unlocked reference re-validates the state
	// before reading or writing the data.
	pageGone
)

type page struct {
	state  pageState
	data   []byte // PageSize bytes when present
	rights Rights
	dirty  bool
	// accessed is the CLOCK recency bit: set lock-free on every cached
	// hit, test-and-cleared by the eviction sweep. This replaces the old
	// move-to-front on a global LRU, which serialized every cached hit in
	// the process on one mutex.
	accessed atomic.Bool
	// gen counts modifications: it is bumped every time the page is
	// dirtied. Write-back snapshots (pn, gen, data) under the lock, writes
	// with the lock released, and clears the dirty bit only if gen did not
	// move — a write landing mid-flush keeps its dirty bit, so the newer
	// data is flushed again rather than lost. Same pattern as
	// coherency.blockState.version.
	gen uint64
	// epoch counts the coherency actions that hit this page. A coherency
	// action overlapping an in-flight fault cannot wait for the fault (the
	// fault may be blocked inside the very pager issuing the action —
	// waiting would deadlock); instead it bumps the epoch, and the install
	// path discards the grant and retries when the epoch moved. This keeps
	// the MRSW invariant: what was granted before a revocation is never
	// installed after it. Present pages count too, because a resident
	// read-only page can have a write grant in flight (FileCache.grant) and
	// a DenyWrites against it changes nothing else the grant could see.
	epoch uint64
}

// noteHit records a cached hit: the accessed bit feeds the eviction clock
// without touching any shared lock. A hit that finds the bit already set
// is a coalesced touch — work the old exact LRU would have done under the
// global mutex.
func (p *page) noteHit() {
	hitsStat.Inc()
	if p.accessed.Swap(true) {
		touchCoalescedStat.Inc()
	}
}

// FileCache is the VMM half of one pager-cache connection: the pages the
// VMM caches for one memory-object backing store, plus the pager object it
// faults from. Coherency actions from the pager arrive through the
// associated vmmCacheObject.
type FileCache struct {
	vmm   *VMM
	pager PagerObject
	id    uint64

	// mu is an RWMutex so cached readers run concurrently: the read hot
	// path takes the shared lock, validates, copies, and is done. All
	// mutation — installs, cached writes, coherency actions, flush
	// settles — takes the exclusive lock, and cond waits on the exclusive
	// side (sync.Cond over the RWMutex's Lock/Unlock).
	mu        sync.RWMutex
	cond      *sync.Cond
	pages     map[int64]*page
	destroyed bool
	// readAhead selects the fault clustering policy when the pager
	// supports page-in hints: < 0 disables hints entirely, 0 (the
	// default) is adaptive — read faults offer the pager a wide window
	// and let its stream detector decide how much to return — and > 0
	// requests exactly that many extra pages on every fault.
	readAhead int
}

// adaptiveReadAheadPages is the hint window offered to the pager in
// adaptive mode (readAhead == 0). The pager's own sequential-stream
// detection decides how much of it to fill.
const adaptiveReadAheadPages = 64

// ID returns the connection identifier (equals the rights token id).
func (fc *FileCache) ID() uint64 { return fc.id }

// Pager returns the pager object the cache faults from.
func (fc *FileCache) Pager() PagerObject { return fc.pager }

// SetReadAhead configures fault clustering when the pager supports
// page-in hints (paper Section 8): pages > 0 requests that many extra
// pages on every fault, pages == 0 (the default) lets the pager's
// sequential-stream detector size the cluster, and pages < 0 turns
// hinted page-ins off.
func (fc *FileCache) SetReadAhead(pages int) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.readAhead = pages
}

// PageCount returns the number of present pages.
func (fc *FileCache) PageCount() int {
	fc.mu.RLock()
	defer fc.mu.RUnlock()
	n := 0
	for _, p := range fc.pages {
		if p.state == pagePresent {
			n++
		}
	}
	return n
}

// PageRights returns the rights of page pn and whether it is present.
func (fc *FileCache) PageRights(pn int64) (Rights, bool) {
	fc.mu.RLock()
	defer fc.mu.RUnlock()
	p, ok := fc.pages[pn]
	if !ok || p.state != pagePresent {
		return RightsNone, false
	}
	return p.rights, true
}

// readCached is the lock-local cached-read hot path: under the shared lock
// it looks up pn, validates that the page is present with read rights, and
// copies out. It takes no global lock, allocates nothing, and runs
// concurrently with other cached readers on the same file. Returns false
// when the slow path (ensure) must run.
func (fc *FileCache) readCached(pn, pageOff int64, dst []byte) (int, bool) {
	fc.mu.RLock()
	p, ok := fc.pages[pn]
	if !ok || p.state != pagePresent || !p.rights.Includes(RightsRead) {
		fc.mu.RUnlock()
		return 0, false
	}
	n := copy(dst, p.data[pageOff:])
	fc.mu.RUnlock()
	p.noteHit()
	return n, true
}

// writeCached is the cached-write hot path: one exclusive lock on this
// file's cache, no global state, no allocation. Returns false when the
// page is absent or lacks write rights and the slow path must run.
func (fc *FileCache) writeCached(pn, pageOff int64, src []byte) (int, bool) {
	fc.mu.Lock()
	p, ok := fc.pages[pn]
	if !ok || p.state != pagePresent || !p.rights.CanWrite() {
		fc.mu.Unlock()
		return 0, false
	}
	n := copy(p.data[pageOff:], src)
	p.dirty = true
	p.gen++
	fc.mu.Unlock()
	p.noteHit()
	return n, true
}

// pageOut writes one page of data back to the pager at pn, recording the
// vmm.page_out op and the PageOuts counter on success.
func (fc *FileCache) pageOut(pn int64, data []byte) error {
	t := opPageOut.Start()
	err := fc.pager.PageOut(pn*PageSize, PageSize, data)
	opPageOut.End(t, int64(len(data)))
	if err == nil {
		fc.vmm.PageOuts.Inc()
	}
	return err
}

// ensure returns page pn with at least the requested rights, faulting it in
// from the pager if necessary. The fault protocol: a faulting placeholder
// is installed under the lock, the page-in happens with the lock released
// (so coherency callbacks proceed), and waiters block on the condition
// variable until the fault resolves. A coherency action that overlaps an
// in-flight fault does not wait for it — it bumps the placeholder's epoch,
// which makes the install path discard the granted data and retry the
// fault (see page.epoch).
func (fc *FileCache) ensure(pn int64, want Rights) (*page, error) {
	upgradeInPlace := true
	for {
		fc.mu.Lock()
		for {
			if fc.destroyed {
				fc.mu.Unlock()
				return nil, ErrDestroyed
			}
			p, ok := fc.pages[pn]
			if !ok {
				break // absent: fault below
			}
			if p.state == pageFaulting {
				fc.cond.Wait()
				continue
			}
			if p.rights.Includes(want) {
				fc.mu.Unlock()
				p.noteHit()
				return p, nil
			}
			// Present with insufficient rights: upgrade fault. A clean
			// read-only page is current under MRSW, so it needs the write
			// grant and none of the data: it keeps its bytes and its place
			// while the grant is in flight. Tried once; if a coherency
			// action crossed the grant, the full re-fault below runs.
			if upgradeInPlace && !p.dirty {
				upgradeInPlace = false
				fc.mu.Unlock()
				if _, err := fc.grant(pn, nil); err != nil {
					return nil, err
				}
				fc.mu.Lock()
				continue
			}
			// Modified data must go back to the pager first so it is not
			// lost; the pager hands the current contents back from the new
			// page-in.
			dirtyData := p.dirty
			dataCopy := p.data
			p.state = pageGone
			p.data = nil
			fc.pages[pn] = &page{state: pageFaulting}
			fc.vmm.forget(fc, pn)
			fc.mu.Unlock()
			if dirtyData {
				if err := fc.pageOut(pn, dataCopy); err != nil {
					putPageBuf(dataCopy)
					fc.abortFault(pn)
					return nil, err
				}
			}
			// The pager never retains page-out data (PagerObject contract),
			// so the orphaned buffer can be recycled now.
			putPageBuf(dataCopy)
			goto fault
		}
		fc.pages[pn] = &page{state: pageFaulting}
		fc.mu.Unlock()
	fault:
		p, retry, err := fc.fault(pn, want)
		if err != nil {
			return nil, err
		}
		if !retry {
			return p, nil
		}
		// The grant was revoked mid-flight; run the protocol again.
	}
}

// fault performs the page-in for pn (placeholder already installed) and
// installs the result. retry is true when a coherency action revoked the
// grant while it was in flight. Called without fc.mu held.
func (fc *FileCache) fault(pn int64, want Rights) (p *page, retry bool, err error) {
	fc.mu.Lock()
	ph, ok := fc.pages[pn]
	if !ok || ph.state != pageFaulting {
		// Populate/ZeroFill replaced the placeholder already.
		fc.mu.Unlock()
		return nil, true, nil
	}
	epoch := ph.epoch
	ra := fc.readAhead
	fc.mu.Unlock()

	var data []byte
	t := opPageIn.Start()
	// Adaptive clustering applies to read faults only: a write fault
	// that drags extra pages in would also drag their write rights from
	// a coherent pager, stealing blocks other clients are using.
	hinted := false
	if ra > 0 || (ra == 0 && !want.CanWrite()) {
		if hp, ok := spring.Narrow[HintedPager](fc.pager); ok {
			maxPages := Offset(ra + 1)
			if ra == 0 {
				maxPages = adaptiveReadAheadPages
			}
			data, err = hp.PageInHint(pn*PageSize, PageSize, maxPages*PageSize, want)
			hinted = true
		}
	}
	if !hinted {
		data, err = fc.pager.PageIn(pn*PageSize, PageSize, want)
	}
	opPageIn.End(t, int64(len(data)))
	if err != nil {
		fc.abortFault(pn)
		return nil, false, err
	}
	fc.vmm.PageIns.Inc()
	missesStat.Inc()
	if len(data) < PageSize || len(data)%PageSize != 0 {
		err = fmt.Errorf("vm: pager returned %d bytes, want a positive multiple of %d", len(data), PageSize)
		fc.abortFault(pn)
		return nil, false, err
	}

	fc.mu.Lock()
	defer fc.mu.Unlock()
	defer fc.cond.Broadcast()
	if fc.destroyed {
		delete(fc.pages, pn)
		return nil, false, ErrDestroyed
	}
	cur, ok := fc.pages[pn]
	if !ok || cur != ph || cur.state != pageFaulting || cur.epoch != epoch {
		// Revoked or replaced mid-flight: discard the grant and retry.
		if ok && cur == ph && cur.state == pageFaulting {
			delete(fc.pages, pn)
		}
		return nil, true, nil
	}
	buf := getPageBuf()
	copy(buf, data[:PageSize])
	p = &page{state: pagePresent, data: buf, rights: want}
	fc.pages[pn] = p
	fc.vmm.noteInstalled(fc, pn, p)
	// Install any read-ahead surplus the pager returned. Extra pages get
	// the same rights as the fault that pulled them in.
	for i := 1; i*PageSize < len(data); i++ {
		fc.installIfAbsentLocked(pn+int64(i), data[i*PageSize:(i+1)*PageSize], want)
	}
	return p, false, nil
}

// grantee is one page of a write grant in flight: the page object the
// request was made for — a faulting placeholder, or a resident read-only
// page — and its epoch when the request left.
type grantee struct {
	p     *page
	epoch uint64
}

// grant makes pages writable without paging their data in: it asks the
// pager for write access alone (RightsNoData) over a run of pages starting
// at pn, in one pager call, and reports how many pages of the run — always
// a prefix — it made writable. Zero means a coherency action or another
// fault got in the way; the caller then takes the ordinary fault path.
//
// With src, the caller is overwriting whole pages with src's bytes: the run
// extends over the pages src covers (at most the write-back extent bound)
// for as long as they are absent or resident read-only, and each granted
// page is installed straight from src, dirty. With src nil the single
// resident read-only page pn is upgraded in place and keeps its bytes.
//
// The protocol is fault's: absent pages get faulting placeholders (readers
// and writers wait on them), the pager is called with fc.mu released, and
// a page is settled only if it is still the object the request was made
// for and no coherency action bumped its epoch meanwhile — otherwise that
// page and the rest of the run give the grant up. A pager that does not
// know RightsNoData returns the data; it is counted as the page-in it was
// and ignored.
func (fc *FileCache) grant(pn int64, src []byte) (int, error) {
	limit := 1
	if src != nil {
		limit = min(len(src)/PageSize, fc.vmm.maxExtentPageCount())
	}
	run := make([]grantee, 0, limit)
	fc.mu.Lock()
	for len(run) < limit && !fc.destroyed {
		k := pn + int64(len(run))
		p, ok := fc.pages[k]
		if !ok && src != nil {
			p = &page{state: pageFaulting}
			fc.pages[k] = p
		} else if !ok || p.state != pagePresent || p.rights.CanWrite() || p.dirty {
			break
		}
		run = append(run, grantee{p: p, epoch: p.epoch})
	}
	fc.mu.Unlock()
	if len(run) == 0 {
		return 0, nil
	}

	size := Offset(len(run)) * PageSize
	grantsStat.Inc()
	t := opPageIn.Start()
	data, err := fc.pager.PageIn(pn*PageSize, size, RightsWrite|RightsNoData)
	if err == nil && len(data) != 0 {
		opPageIn.End(t, int64(len(data)))
		fc.vmm.PageIns.Inc()
		missesStat.Inc()
		if Offset(len(data)) != size {
			err = fmt.Errorf("vm: pager returned %d bytes for a write grant of %d", len(data), size)
		}
	}

	fc.mu.Lock()
	defer fc.mu.Unlock()
	defer fc.cond.Broadcast()
	if err == nil && fc.destroyed {
		err = ErrDestroyed
	}
	intact := err == nil // false from the first page a coherency action crossed
	granted := 0
	for i, g := range run {
		k := pn + int64(i)
		if fc.pages[k] != g.p {
			// Removed or replaced (evicted, flushed back, populated): the
			// new occupant is not ours to touch.
			intact = false
			continue
		}
		if g.p.epoch != g.epoch {
			intact = false
		}
		switch {
		case !intact:
			if g.p.state == pageFaulting {
				delete(fc.pages, k)
			}
		case g.p.state == pageFaulting:
			buf := getPageBuf()
			copy(buf, src[i*PageSize:(i+1)*PageSize])
			p := &page{state: pagePresent, data: buf, rights: RightsWrite, dirty: true, gen: 1}
			fc.pages[k] = p
			fc.vmm.noteInstalled(fc, k, p)
			granted++
		default:
			if src != nil {
				copy(g.p.data, src[i*PageSize:(i+1)*PageSize])
				g.p.dirty = true
				g.p.gen++
			}
			g.p.rights = RightsWrite
			granted++
		}
	}
	grantPagesStat.Add(int64(granted))
	return granted, err
}

// abortFault removes the faulting placeholder for pn after an error.
func (fc *FileCache) abortFault(pn int64) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if p, ok := fc.pages[pn]; ok && p.state == pageFaulting {
		delete(fc.pages, pn)
	}
	fc.cond.Broadcast()
}

// installIfAbsentLocked installs a read-ahead page if nothing is cached or
// faulting at pn. Caller holds fc.mu.
func (fc *FileCache) installIfAbsentLocked(pn int64, data []byte, rights Rights) {
	if fc.destroyed {
		return
	}
	if _, ok := fc.pages[pn]; ok {
		return
	}
	buf := getPageBuf()
	copy(buf, data)
	p := &page{state: pagePresent, data: buf, rights: rights}
	fc.pages[pn] = p
	fc.vmm.noteInstalled(fc, pn, p)
}

// removePageLocked deletes a present page from the cache, marking the page
// object gone so racing readers and writers holding a stale reference
// re-validate and re-fault (see pageGone), and recycling its backing
// array. Caller holds fc.mu exclusively — that is what makes the recycle
// safe: no shared-lock reader can be mid-copy, and every later reference
// re-validates the state before touching data.
func (fc *FileCache) removePageLocked(pn int64, p *page) {
	p.state = pageGone
	putPageBuf(p.data)
	p.data = nil
	delete(fc.pages, pn)
	fc.vmm.forget(fc, pn)
}

// evict removes page pn if it is present, writing modified contents back to
// the pager first. It reports whether the page was evicted.
//
// A dirty victim is flushed together with the whole contiguous run of
// dirty pages around it (bounded by the configured max extent): the run
// retires in one pager call — one positioning delay on disk, one RPC over
// DFS — and every page it covers is evicted with it. The pages stay
// present in the cache during the unlocked write-back, so a concurrent
// fault is served from the cache instead of re-reading stale data from the
// pager; this is what closes the old delete-then-reinstall race, where a
// racing fault could install a stale page and the modified data was
// silently dropped. A page dirtied again mid-flush keeps its dirty bit and
// stays cached (see page.gen).
func (fc *FileCache) evict(pn int64) bool {
	fc.mu.Lock()
	p, ok := fc.pages[pn]
	if !ok || p.state != pagePresent {
		fc.mu.Unlock()
		return false
	}
	if !p.dirty {
		fc.removePageLocked(pn, p)
		fc.cond.Broadcast()
		fc.mu.Unlock()
		fc.vmm.Evictions.Inc()
		return true
	}
	ext := fc.dirtyRunLocked(pn)
	fc.mu.Unlock()
	defer ext.release()
	if err := fc.writeExtent(ext, flushEvict); err != nil {
		// The pages stay cached and dirty: nothing was lost. The caller
		// rotates the victim so its sweep stays bounded.
		return false
	}
	fc.completeExtent(ext, flushEvict)
	fc.mu.Lock()
	_, still := fc.pages[pn]
	fc.mu.Unlock()
	return !still
}

// inRange calls visit for every entry of the page map in [first, last] and
// reports whether it did so in ascending order. A range op costs the range,
// not the cache: it walks the range when that is shorter than the map, and
// the sparse map otherwise — the range may be "the whole file" (2^50+
// pages). visit may delete the entry it is given. Caller holds fc.mu.
func (fc *FileCache) inRange(first, last int64, visit func(pn int64, p *page)) (ascending bool) {
	if last-first < int64(len(fc.pages)) {
		for pn := first; pn <= last; pn++ {
			if p, ok := fc.pages[pn]; ok {
				visit(pn, p)
			}
		}
		return true
	}
	for pn, p := range fc.pages {
		if pn >= first && pn <= last {
			visit(pn, p)
		}
	}
	return false
}

// revokeInFlight bumps the epoch of every page in [first, last] so that a
// fault or write grant in flight for it is discarded on install and
// retried. Caller holds fc.mu. See page.epoch for why coherency actions
// must not wait for in-flight faults.
func (fc *FileCache) revokeInFlight(first, last int64) {
	fc.inRange(first, last, func(_ int64, p *page) { p.epoch++ })
}

// presentInRange returns the sorted page numbers of present pages in
// [first, last]. Caller holds fc.mu.
func (fc *FileCache) presentInRange(first, last int64) []int64 {
	var pns []int64
	ascending := fc.inRange(first, last, func(pn int64, p *page) {
		if p.state == pagePresent {
			pns = append(pns, pn)
		}
	})
	if !ascending {
		slices.Sort(pns)
	}
	return pns
}

// revoke is the common head of the range coherency actions: it invalidates
// what is in flight for [first, last], gathers the contiguous runs of
// modified pages among the present ones into Data extents, and returns those
// together with the present pages' numbers (ascending) for the action to
// settle — clear dirty, downgrade or delete. Caller holds fc.mu.
func (fc *FileCache) revoke(first, last int64) (present []int64, out []Data) {
	fc.revokeInFlight(first, last)
	present = fc.presentInRange(first, last)
	var run []byte
	var runStart int64 = -1
	flush := func() {
		if runStart >= 0 {
			out = append(out, Data{Offset: runStart * PageSize, Bytes: run})
			run = nil
			runStart = -1
		}
	}
	prev := int64(-2)
	for _, pn := range present {
		p := fc.pages[pn]
		if !p.dirty {
			flush()
			prev = pn
			continue
		}
		if runStart >= 0 && pn != prev+1 {
			flush()
		}
		if runStart < 0 {
			runStart = pn
		}
		run = append(run, p.data...)
		prev = pn
	}
	flush()
	return present, out
}

// vmmCacheObject adapts a FileCache to the CacheObject interface pagers
// invoke. It is a distinct type so that the VMM's cache object narrows to
// plain CacheObject — not to fs_cache — letting pagers distinguish a VMM
// from a stacked file system (Section 4.3).
type vmmCacheObject FileCache

var _ CacheObject = (*vmmCacheObject)(nil)

func (c *vmmCacheObject) fc() *FileCache { return (*FileCache)(c) }

// FlushBack implements CacheObject.
func (c *vmmCacheObject) FlushBack(offset, size Offset) []Data {
	fc := c.fc()
	first, last := PageRange(offset, size)
	fc.mu.Lock()
	defer fc.mu.Unlock()
	present, out := fc.revoke(first, last)
	for _, pn := range present {
		fc.removePageLocked(pn, fc.pages[pn])
	}
	fc.cond.Broadcast()
	return out
}

// DenyWrites implements CacheObject.
func (c *vmmCacheObject) DenyWrites(offset, size Offset) []Data {
	fc := c.fc()
	first, last := PageRange(offset, size)
	fc.mu.Lock()
	defer fc.mu.Unlock()
	present, out := fc.revoke(first, last)
	for _, pn := range present {
		p := fc.pages[pn]
		p.rights = RightsRead
		p.dirty = false
	}
	return out
}

// WriteBack implements CacheObject.
func (c *vmmCacheObject) WriteBack(offset, size Offset) []Data {
	fc := c.fc()
	first, last := PageRange(offset, size)
	fc.mu.Lock()
	defer fc.mu.Unlock()
	present, out := fc.revoke(first, last)
	for _, pn := range present {
		fc.pages[pn].dirty = false
	}
	return out
}

// DeleteRange implements CacheObject.
func (c *vmmCacheObject) DeleteRange(offset, size Offset) {
	fc := c.fc()
	first, last := PageRange(offset, size)
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.revokeInFlight(first, last)
	for _, pn := range fc.presentInRange(first, last) {
		fc.removePageLocked(pn, fc.pages[pn])
	}
	fc.cond.Broadcast()
}

// ZeroFill implements CacheObject. Zero pages are installed read-write:
// only the pager invokes ZeroFill, and by doing so it grants the range (it
// is used when a file is extended, so no other cache can hold the range).
func (c *vmmCacheObject) ZeroFill(offset, size Offset) {
	fc := c.fc()
	first, last := PageRange(offset, size)
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.revokeInFlight(first, last)
	if fc.destroyed {
		return
	}
	for pn := first; pn <= last; pn++ {
		if old, ok := fc.pages[pn]; ok && old.state == pagePresent {
			old.state = pageGone
			putPageBuf(old.data)
			old.data = nil
		}
		p := &page{state: pagePresent, data: getZeroedPageBuf(), rights: RightsWrite}
		fc.pages[pn] = p
		fc.vmm.noteInstalled(fc, pn, p)
	}
	fc.cond.Broadcast()
}

// Populate implements CacheObject.
func (c *vmmCacheObject) Populate(offset, size Offset, access Rights, data []byte) {
	fc := c.fc()
	first, last := PageRange(offset, size)
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.revokeInFlight(first, last)
	if fc.destroyed {
		return
	}
	for pn := first; pn <= last; pn++ {
		if old, ok := fc.pages[pn]; ok && old.state == pagePresent {
			old.state = pageGone
			putPageBuf(old.data)
			old.data = nil
		}
		buf := getPageBuf()
		n := copy(buf, data[(pn-first)*PageSize:])
		clear(buf[n:]) // pooled buffers carry stale bytes; make() was zeroed
		p := &page{state: pagePresent, data: buf, rights: access}
		fc.pages[pn] = p
		fc.vmm.noteInstalled(fc, pn, p)
	}
	fc.cond.Broadcast()
}

// DestroyCache implements CacheObject.
func (c *vmmCacheObject) DestroyCache() {
	fc := c.fc()
	fc.mu.Lock()
	defer fc.mu.Unlock()
	for pn, p := range fc.pages {
		if p.state == pagePresent {
			p.state = pageGone
			putPageBuf(p.data)
			p.data = nil
		}
		fc.vmm.forget(fc, pn)
	}
	fc.pages = make(map[int64]*page)
	fc.destroyed = true
	fc.cond.Broadcast()
}

// Mapping is a memory object mapped with some access rights. Reads and
// writes go through the VMM page cache, faulting pages from the pager as
// needed; this is the "map the file into its address space and read/write
// the mapped memory" path file servers use to implement read/write
// operations.
type Mapping struct {
	fc     *FileCache
	access Rights
	mobj   MemoryObject
}

// MemoryObject returns the mapped memory object.
func (m *Mapping) MemoryObject() MemoryObject { return m.mobj }

// Cache returns the underlying file cache (for tests and diagnostics).
func (m *Mapping) Cache() *FileCache { return m.fc }

// ReadAt copies len(p) bytes at offset off out of the mapping. It operates
// at page granularity below the file length abstraction: callers enforce
// EOF; ReadAt always succeeds for any in-range page the pager can provide.
func (m *Mapping) ReadAt(p []byte, off int64) (int, error) {
	if !m.access.CanRead() {
		return 0, ErrNoAccess
	}
	done := 0
	for done < len(p) {
		pn := (off + int64(done)) / PageSize
		pageOff := (off + int64(done)) % PageSize
		// Hot path: page cached with read rights — shared lock, no global
		// state, no allocation.
		if n, ok := m.fc.readCached(pn, pageOff, p[done:]); ok {
			done += n
			continue
		}
		pg, err := m.fc.ensure(pn, RightsRead)
		if err != nil {
			return done, err
		}
		m.fc.mu.RLock()
		// Re-validate under the lock: the page may have been revoked or
		// evicted — and its buffer recycled — between ensure and here.
		if pg.state != pagePresent {
			m.fc.mu.RUnlock()
			continue
		}
		n := copy(p[done:], pg.data[pageOff:])
		m.fc.mu.RUnlock()
		done += n
	}
	return done, nil
}

// WriteAt copies p into the mapping at offset off, faulting pages in
// read-write mode and marking them modified. Pages p covers completely are
// not faulted in: they take a write grant and are installed from p (see
// FileCache.grant); partial pages take the ordinary fault.
func (m *Mapping) WriteAt(p []byte, off int64) (int, error) {
	if !m.access.CanWrite() {
		return 0, ErrNoAccess
	}
	done := 0
	for done < len(p) {
		pn := (off + int64(done)) / PageSize
		pageOff := (off + int64(done)) % PageSize
		// Hot path: page cached with write rights — this file's lock only.
		if n, ok := m.fc.writeCached(pn, pageOff, p[done:]); ok {
			done += n
			continue
		}
		if pageOff == 0 && len(p)-done >= PageSize {
			// p replaces this page whole, and maybe a run after it: the
			// fault needs the write grant, not the bytes about to be
			// overwritten.
			n, err := m.fc.grant(pn, p[done:])
			if err != nil {
				return done, err
			}
			if n > 0 {
				done += n * PageSize
				continue
			}
		}
		pg, err := m.fc.ensure(pn, RightsWrite)
		if err != nil {
			return done, err
		}
		m.fc.mu.Lock()
		// Re-validate under the lock: a coherency action may have
		// downgraded the page between ensure and here.
		if pg.state != pagePresent || !pg.rights.CanWrite() {
			m.fc.mu.Unlock()
			continue
		}
		n := copy(pg.data[pageOff:], p[done:])
		pg.dirty = true
		pg.gen++
		m.fc.mu.Unlock()
		done += n
	}
	m.fc.vmm.maybeEvict()
	return done, nil
}

// Sync pushes all modified pages of the mapping back to the pager,
// keeping them cached. Contiguous dirty runs are coalesced into extents
// and written back through the flush engine (flush.go): extents are handed
// out in file order (sequential write-back lets the pager lay blocks out
// contiguously) and flushed concurrently by a bounded worker pool. A page
// written again mid-flush keeps its dirty bit (page.gen), so no update is
// ever lost to the old pointer-compare race.
func (m *Mapping) Sync() error {
	return m.fc.flushRange(0, maxPageNumber, flushSync)
}

// Unmap releases the mapping. The cache connection persists (other
// mappings and future binds reuse it); Unmap exists so address-space
// accounting in AddressSpace works.
func (m *Mapping) Unmap() {}

// DropCaches evicts every cached page from every file cache, writing
// modified pages back to their pagers first. Dirty pages stay cached until
// their write-back succeeds: with a failing pager nothing is lost (the
// pages remain resident and dirty, and a racing fault is served from the
// cache rather than re-reading stale data from the pager), and the
// remaining caches are still flushed, with all errors accumulated. The
// benchmark harness uses it to measure cold-cache operation costs; it is
// not part of the paper's architecture.
func (v *VMM) DropCaches() error {
	v.mu.Lock()
	caches := make([]*FileCache, 0, len(v.caches))
	for _, fc := range v.caches {
		caches = append(caches, fc)
	}
	v.mu.Unlock()
	var errs []error
	for _, fc := range caches {
		// Cluster-flush the dirty pages, evicting each extent's pages as
		// its write-back succeeds...
		if err := fc.flushRange(0, maxPageNumber, flushEvict); err != nil {
			errs = append(errs, err)
		}
		// ...then drop the clean remainder. Pages whose write-back failed,
		// or that were dirtied again mid-flush, are still dirty and stay.
		fc.mu.Lock()
		for pn, p := range fc.pages {
			if p.state == pagePresent && !p.dirty {
				fc.removePageLocked(pn, p)
			}
		}
		fc.cond.Broadcast()
		fc.mu.Unlock()
	}
	return errors.Join(errs...)
}
