package coherency

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// blockState is the per-block protocol state: which upper connections hold
// the block and in what mode, plus the coherency layer's own cached copy.
//
// Invariants (with busy held):
//   - at most one holder has read-write rights, and then no other holder
//     exists (MRSW);
//   - b.data, when valid, is the freshest copy known below the holders: a
//     read-write holder may have a newer copy, which is reconciled
//     (FlushBack/DenyWrites) before anyone else is served;
//   - dirty means b.data contains modifications not yet written to the
//     lower layer (the layer caches writes, which is what makes cached
//     writes free of lower-layer calls in Table 2).
type blockState struct {
	busy    bool
	writing bool   // a write-through is in flight below; the next one waits its turn
	epoch   uint64 // bumped by revocations; in-flight fetches revalidate
	version uint64 // bumped on every data change; guards dirty-clearing
	holders map[*fsys.Connection]vm.Rights
	data    []byte
	valid   bool
	dirty   bool
}

// hasWriter reports whether some holder has the block read-write. Its
// current bytes then come from that holder, by revocation, whatever the
// layer below has. Caller holds busy.
func (b *blockState) hasWriter() bool {
	for _, r := range b.holders {
		if r.CanWrite() {
			return true
		}
	}
	return false
}

// takeDirty appends the block's modified copy, if it has one, to out and
// marks the block clean: the caller hands the data to the layer below.
func (b *blockState) takeDirty(pn int64, out []vm.Data) []vm.Data {
	if b.valid && b.dirty {
		out = append(out, vm.Data{Offset: pn * BlockSize, Bytes: bytes.Clone(b.data)})
		b.dirty = false
	}
	return out
}

// discard drops the block's cached copy.
func (b *blockState) discard() {
	b.valid, b.dirty, b.data = false, false, nil
	b.version++
}

// cohFile is one coherent file: a wrapper around a lower-layer file that
// acts as a pager to the caches above it and as a cache manager to the
// layer below it (Figure 4 of the paper: a file system as pager and cache
// manager at the same time).
type cohFile struct {
	fs      *CohFS
	lower   fsys.File
	backing uint64
	io      *fsys.MappedIO
	attrs   fsys.AttrCache

	// conn is the cache-manager half: the connection to the lower file,
	// bound on first use, with lowerCacheObject as the fs_cache handed down.
	conn fsys.LowerConn

	// bmu + bcond guard the block table and the per-block busy flags.
	bmu    sync.Mutex
	bcond  *sync.Cond
	blocks map[int64]*blockState
}

var (
	_ fsys.File             = (*cohFile)(nil)
	_ naming.ProxyWrappable = (*cohFile)(nil)
)

// WrapForChannel implements naming.ProxyWrappable.
func (f *cohFile) WrapForChannel(ch *spring.Channel) naming.Object {
	return fsys.NewFileProxy(ch, f)
}

// Lower returns the underlying file (tests).
func (f *cohFile) Lower() fsys.File { return f.lower }

// lowerAttrs fetches attributes from the lower layer, preferring the
// fs_pager attribute operations when the lower pager narrowed to fs_pager
// and falling back to the file interface otherwise.
func (f *cohFile) lowerAttrs() (fsys.Attributes, error) {
	if fp := f.conn.FsPager(); fp != nil {
		return fp.GetAttributes()
	}
	return f.lower.Stat()
}

// pushLowerAttrs writes modified attributes to the lower layer.
func (f *cohFile) pushLowerAttrs(attrs fsys.Attributes) error {
	if fp := f.conn.FsPager(); fp != nil {
		return fp.SetAttributes(attrs)
	}
	return f.lower.SetLength(attrs.Length)
}

// ---- block protocol ----

// acquire waits for and claims the busy flag of block pn.
func (f *cohFile) acquire(pn int64) *blockState { return f.claim(pn, false) }

// claim is acquire that, for a write-through, also waits out one already in
// flight for the block: the lower layer then sees the writes of one block in
// version order, and a stale one cannot land on top of a newer one whose
// dirty bit is already cleared. Only the next write-through waits — a
// coherency action from below, which the lower call may be waiting for,
// needs just the busy flag.
func (f *cohFile) claim(pn int64, writeThrough bool) *blockState {
	f.bmu.Lock()
	b, ok := f.blocks[pn]
	if !ok {
		b = &blockState{holders: make(map[*fsys.Connection]vm.Rights)}
		f.blocks[pn] = b
	}
	for b.busy || (writeThrough && b.writing) {
		f.bcond.Wait()
	}
	b.busy = true
	f.bmu.Unlock()
	return b
}

// release drops the busy flag.
func (f *cohFile) release(b *blockState) {
	f.bmu.Lock()
	b.busy = false
	f.bcond.Broadcast()
	f.bmu.Unlock()
}

// absorb merges data returned by an upper cache (flush-back/deny-writes)
// into the block's cached copy. Caller holds busy.
func (f *cohFile) absorb(b *blockState, pn int64, datas []vm.Data) {
	off := pn * BlockSize
	for _, d := range datas {
		if d.Offset <= off && off+BlockSize <= d.Offset+int64(len(d.Bytes)) {
			if b.data == nil {
				b.data = make([]byte, BlockSize)
			}
			copy(b.data, d.Bytes[off-d.Offset:])
			b.valid = true
			b.dirty = true
			b.version++
		}
	}
}

// unreachableHolder reports whether a cache object crossed a network
// boundary and can no longer be revoked (see vm.UnreachableCache). Its
// empty revocation result then means "holder gone", not "nothing dirty".
func unreachableHolder(c vm.CacheObject) bool {
	u, ok := spring.Narrow[vm.UnreachableCache](c)
	return ok && u.Unreachable()
}

// revokeMode is the coherency action revoke takes against the holders of a
// run of blocks.
type revokeMode int

const (
	holdOnly    revokeMode = iota // no call-out: the caller's settle is the whole action
	denyWrites                    // writers hand back modified data and keep the blocks read-only
	flushBack                     // writers flush back, readers delete; every holder is removed
	deleteRange                   // every holder deletes and is removed; nothing comes back
)

// revokeModeFor is the action a page-in with the given access needs.
func revokeModeFor(access vm.Rights) revokeMode {
	if access.CanWrite() {
		return flushBack
	}
	return denyWrites
}

// revoke is the one place this layer issues coherency actions, and its unit
// is the run, not the block. pns lists blocks in ascending order. revoke
// claims the busy flags of one contiguous run at a time — ascending, at most
// maxRevokeBlocks, so a holder's reply fits one DFS frame — and makes ONE
// call-out per holder (other than requester) per maximal sub-run that holder
// holds in the same way. The reply may be one coalesced extent, several, or
// cover only part of the sub-run: it is absorbed block by block, and a block
// it does not cover keeps the copy it had. The holder is downgraded
// (denyWrites) or removed.
//
// A write-holding cache that turns out to be unreachable is dropped like any
// other holder, but its unflushed modifications are lost; its blocks, and
// only those, are reported lost (to settle, and anyLost if there was one) so
// the caller can surface an error instead of silently serving the last copy
// this layer has.
//
// settle, if not nil, then runs for each block of the run with its flag
// still held, and the run is released. Upward call-outs only.
func (f *cohFile) revoke(pns []int64, mode revokeMode, requester *fsys.Connection, settle func(pn int64, b *blockState, lost bool)) (anyLost bool) {
	// Runs up to a write-through's length — every single-block page-in —
	// stay on the stack; only a longer run allocates.
	var bsArr [maxWriteThroughBlocks]*blockState
	var lostArr [maxWriteThroughBlocks]bool
	bs, lost := bsArr[:], lostArr[:]
	for len(pns) > 0 {
		n := 1
		for n < len(pns) && n < maxRevokeBlocks && pns[n] == pns[n-1]+1 {
			n++
		}
		if n > len(bs) {
			bs, lost = make([]*blockState, maxRevokeBlocks), make([]bool, maxRevokeBlocks)
		}
		for i, pn := range pns[:n] {
			bs[i], lost[i] = f.acquire(pn), false
		}
		for i := 0; i < n && mode != holdOnly; i++ {
			for h, r := range bs[i].holders {
				if h == requester || (mode == denyWrites && !r.CanWrite()) {
					continue
				}
				// Extend over the blocks h holds the same way. Settling takes
				// h out of the affected set of each, so no block is visited
				// twice for one holder.
				j := i + 1
				for ; j < n; j++ {
					if rj, ok := bs[j].holders[h]; !ok || (mode != deleteRange && rj.CanWrite() != r.CanWrite()) {
						break
					}
				}
				off, size := pns[i]*BlockSize, vm.Offset(j-i)*BlockSize
				reclaim := mode != deleteRange && r.CanWrite()
				var datas []vm.Data
				t := opRevoke.Start()
				switch {
				case !reclaim:
					h.Cache.DeleteRange(off, size)
				case mode == flushBack:
					datas = h.Cache.FlushBack(off, size)
				default:
					datas = h.Cache.DenyWrites(off, size)
				}
				opRevoke.End(t, size)
				dead := reclaim && unreachableHolder(h.Cache)
				for k := i; k < j; k++ {
					f.absorb(bs[k], pns[k], datas)
					if mode == denyWrites && !dead {
						bs[k].holders[h] = vm.RightsRead
					} else {
						delete(bs[k].holders, h)
					}
					if dead {
						lost[k], anyLost = true, true
						f.fs.LostHolders.Inc()
					}
					f.fs.Revocations.Inc()
				}
			}
		}
		for i, pn := range pns[:n] {
			if settle != nil {
				settle(pn, bs[i], lost[i])
			}
			f.release(bs[i])
		}
		pns = pns[n:]
	}
	return anyLost
}

// blockNumbers lists, in ascending order, the blocks in [first, last] this
// layer has state for — never the raw range, which may be the whole file.
func (f *cohFile) blockNumbers(first, last int64) []int64 {
	f.bmu.Lock()
	var pns []int64
	for pn := range f.blocks {
		if pn >= first && pn <= last {
			pns = append(pns, pn)
		}
	}
	f.bmu.Unlock()
	slices.Sort(pns)
	return pns
}

// blockRange lists every block of [offset, offset+size).
func blockRange(offset, size vm.Offset) []int64 {
	first, last := vm.PageRange(offset, size)
	pns := make([]int64, 0, last-first+1)
	for pn := first; pn <= last; pn++ {
		pns = append(pns, pn)
	}
	return pns
}

// maxRights merges an existing holding with a new grant.
func maxRights(a, b vm.Rights) vm.Rights {
	return a | b
}

// pageInBlock runs the MRSW protocol for one block on behalf of conn.
// Downward fetches happen with busy released; installs revalidate the
// epoch (see the package comment for the deadlock discipline).
func (f *cohFile) pageInBlock(conn *fsys.Connection, pn int64, access vm.Rights) ([]byte, error) {
	for {
		var out []byte
		var epoch uint64
		lost := f.revoke([]int64{pn}, revokeModeFor(access), conn, func(_ int64, b *blockState, lost bool) {
			epoch = b.epoch
			if !lost && b.valid {
				out = bytes.Clone(b.data)
				b.holders[conn] = maxRights(b.holders[conn], access)
			}
		})
		if lost {
			// The dead holder is already removed, so a retry proceeds
			// normally; this attempt fails so the caller learns that
			// unflushed remote modifications may be gone.
			return nil, ErrHolderUnreachable
		}
		if out != nil {
			return out, nil
		}

		// Fetch from the lower layer without holding the block.
		pager, err := f.conn.Pager()
		if err != nil {
			return nil, err
		}
		t := opPageIn.Start()
		data, err := pager.PageIn(pn*BlockSize, BlockSize, access)
		opPageIn.End(t, BlockSize)
		if err != nil {
			return nil, err
		}
		f.fs.LowerPageIns.Inc()

		b := f.acquire(pn)
		if b.epoch == epoch && !b.valid {
			b.data = data
			b.valid = true
			b.dirty = false
			b.version++
		}
		f.release(b)
		// Loop: the next iteration re-runs revocation and grants from the
		// (now valid) cached copy, or refetches if a revocation landed.
	}
}

// grantWrite answers a write page-in that asked for no data (see
// vm.RightsNoData): the coherency action of a write fault and nothing else.
// Every other holder of each block is revoked and conn is recorded as its
// writer, run by run; the block's cached copy is left as it is and nothing
// is fetched from the layer below. A copy that was valid stays valid — stale
// behind the new writer like behind any writer, and what absorb merges the
// writer's data into when it is next revoked; one that was not becomes valid
// then, or when the writer writes back.
//
// The one thing a data-carrying fault does below that a grant still needs
// is the bind: it is what makes this layer a cache manager of the lower
// file, so that the lower layer's own coherency actions (a truncate's
// purge) reach the blocks granted here.
func (f *cohFile) grantWrite(conn *fsys.Connection, offset, size vm.Offset) error {
	if _, err := f.conn.Pager(); err != nil {
		return err
	}
	lost := f.revoke(blockRange(offset, size), flushBack, conn, func(_ int64, b *blockState, lost bool) {
		if !lost {
			b.holders[conn] = vm.RightsWrite
		}
	})
	if lost {
		// As in pageInBlock: the dead holder is gone, a retry proceeds.
		return ErrHolderUnreachable
	}
	grantsStat.Inc()
	return nil
}

// storeBlock records data written back by conn, adjusting its holding.
// retain < 0 removes the holder; retain == RightsRead downgrades; retain
// == RightsWrite keeps the holding unchanged.
func (f *cohFile) storeBlock(conn *fsys.Connection, pn int64, data []byte, retain int) {
	b := f.acquire(pn)
	if b.data == nil {
		b.data = make([]byte, BlockSize)
	}
	copy(b.data, data)
	b.valid = true
	b.dirty = true
	b.version++
	switch {
	case retain < 0:
		delete(b.holders, conn)
	case vm.Rights(retain) == vm.RightsRead:
		b.holders[conn] = vm.RightsRead
	}
	f.release(b)
}

// maxWriteThroughBlocks bounds one clustered lower write (mirrors the VMM's
// DefaultMaxExtentPages). maxRevokeBlocks bounds one revoked run, and so one
// call-out and its reply, by what a DFS frame carries (4 MiB): a holder's
// contiguous holding of any length up to that costs one round trip.
const (
	maxWriteThroughBlocks = 64
	maxRevokeBlocks       = 1024
)

// writeThroughRuns pushes the dirty blocks among pns (sorted ascending,
// duplicates allowed) to the lower layer, coalescing contiguous dirty
// runs into single lower Sync calls of at most maxWriteThroughBlocks
// blocks — one lower call (one device command, or one RPC) per run
// instead of one per block. Each block's data and version are snapshotted
// with its busy flag held, one block at a time; the lower calls run with
// no busy flag held (the deadlock discipline), and dirty is cleared only
// where the version did not move meanwhile, so a write landing mid-flush
// keeps its block dirty. A block is in at most one lower write at a time
// (see claim). Runs that fail leave their blocks dirty; all errors are
// joined.
func (f *cohFile) writeThroughRuns(pns []int64) error {
	type snap struct {
		pn      int64
		version uint64
	}
	type run struct {
		snaps []snap
		data  []byte
	}
	var runs []*run
	var cur *run
	prev := int64(-2)
	for _, pn := range pns {
		if pn == prev {
			continue
		}
		b := f.claim(pn, true)
		if !b.valid || !b.dirty {
			f.release(b)
			continue
		}
		b.writing = true
		if cur == nil || pn != prev+1 || len(cur.snaps) >= maxWriteThroughBlocks {
			cur = &run{}
			runs = append(runs, cur)
		}
		cur.snaps = append(cur.snaps, snap{pn: pn, version: b.version})
		cur.data = append(cur.data, b.data...)
		prev = pn
		f.release(b)
	}
	if len(runs) == 0 {
		return nil
	}
	pager, bindErr := f.conn.Pager()
	if bindErr == nil {
		bindErr = f.pushDirtyLength()
	}
	errs := []error{bindErr}
	for _, r := range runs {
		err := bindErr // without a lower pager (or its length) every run fails, and settles, alike
		if err == nil {
			t := opWriteThrough.Start()
			err = pager.Sync(r.snaps[0].pn*BlockSize, vm.Offset(len(r.data)), r.data)
			opWriteThrough.End(t, int64(len(r.data)))
			errs = append(errs, err)
		}
		if err == nil {
			f.fs.LowerPageOuts.Add(int64(len(r.snaps)))
		}
		for _, s := range r.snaps {
			b := f.acquire(s.pn)
			b.writing = false
			if err == nil && b.version == s.version {
				b.dirty = false
			}
			f.release(b)
		}
	}
	return errors.Join(errs...)
}

// pushDirtyLength sets the lower file's length to the write-behind one,
// if it is modified, before blocks go down: a page-out never changes a
// file's length (cryptfs's restores the length it found), so blocks
// written past the lower end first would be trimmed away, and the length
// pushed after them would extend the file with zero fill.
func (f *cohFile) pushDirtyLength() error {
	if attrs, valid := f.attrs.Get(); valid && f.attrs.Dirty() {
		return f.pushLowerAttrs(attrs)
	}
	return nil
}

// flushAll downgrades writers, writes every dirty block through to the
// lower layer in clustered runs, and pushes modified attributes down.
func (f *cohFile) flushAll() error {
	// Flush in file order: allocation below then lays blocks out
	// sequentially, which keeps later clustered reads — and the clustered
	// write-back itself — cheap.
	pns := f.blockNumbers(0, math.MaxInt64)
	f.revoke(pns, denyWrites, nil, nil) // collect modified data from writers
	if err := f.writeThroughRuns(pns); err != nil {
		return err
	}
	if attrs, dirty := f.attrs.Flush(); dirty {
		if err := f.pushLowerAttrs(attrs); err != nil {
			return err
		}
	}
	return nil
}

// ---- memory object / file half (toward clients and upper layers) ----

// Bind implements vm.MemoryObject: the coherency layer is the pager for
// its files, so binds terminate here (unlike DFS, which forwards local
// binds).
func (f *cohFile) Bind(caller vm.CacheManager, access vm.Rights, offset, length vm.Offset) (vm.CacheRights, error) {
	rights, _, _ := f.fs.table.Bind(caller, f.backing, func() vm.PagerObject {
		return &cohPager{file: f}
	})
	return rights, nil
}

// pollUpperAttrs runs the attribute-coherency protocol of Section 4.3:
// before serving attributes, the pager collects modified attributes from
// every cache manager above that narrowed to fs_cache (managers that did
// not — e.g. a plain VMM — cannot cache attributes).
func (f *cohFile) pollUpperAttrs() {
	if !f.fs.table.HasFsCache(f.backing) {
		return
	}
	for _, conn := range f.fs.table.ConnectionsFor(f.backing) {
		if conn.FsCache == nil {
			continue
		}
		if attrs, dirty := conn.FsCache.FlushAttributes(); dirty {
			f.attrs.Update(attrs)
		}
	}
}

// invalidateUpperAttrs drops the attribute caches of every fs_cache
// manager above (except the source of a change) so their next stat
// refetches.
func (f *cohFile) invalidateUpperAttrs(except *fsys.Connection) {
	for _, conn := range f.fs.table.ConnectionsFor(f.backing) {
		if conn == except || conn.FsCache == nil {
			continue
		}
		conn.FsCache.InvalidateAttributes()
	}
}

// cachedAttrs returns the file's attributes, first reconciling with the
// fs_cache managers above and fetching from the lower layer on miss — the
// attribute caching of Section 4.3.
func (f *cohFile) cachedAttrs() (fsys.Attributes, error) {
	f.pollUpperAttrs()
	if attrs, ok := f.attrs.Get(); ok {
		return attrs, nil
	}
	attrs, err := f.lowerAttrs()
	if err != nil {
		return fsys.Attributes{}, err
	}
	return f.attrs.Fill(attrs), nil
}

// GetLength implements vm.MemoryObject.
func (f *cohFile) GetLength() (vm.Offset, error) {
	attrs, err := f.cachedAttrs()
	if err != nil {
		return 0, err
	}
	return attrs.Length, nil
}

// lengthNoPoll returns the file length without reconciling upper-layer
// attribute caches. The read-ahead hint path uses it to clamp the window
// at EOF: a clamp is best effort, and a full reconciliation there would
// flush (and so invalidate) every client's attribute cache on a plain
// sequential read, costing each of them a refetch round trip.
func (f *cohFile) lengthNoPoll() (vm.Offset, error) {
	if attrs, ok := f.attrs.Get(); ok {
		return attrs.Length, nil
	}
	attrs, err := f.lowerAttrs()
	if err != nil {
		return 0, err
	}
	return attrs.Length, nil
}

// SetLength implements vm.MemoryObject. An extension is cached and written
// back on flush (attribute write-behind), but a shrink is written through:
// the dropped bytes logically become zeros now. pushShrink clears this
// layer's straddling block and the blocks past the new end, here and in
// every client above, before it pushes the shrink down to the layer that
// owns the storage.
func (f *cohFile) SetLength(length vm.Offset) error {
	attrs, err := f.cachedAttrs()
	if err != nil {
		return err
	}
	old := attrs.Length
	attrs.Length = length
	attrs.ModifyTime = time.Now()
	f.attrs.Update(attrs)
	f.invalidateUpperAttrs(nil)
	if length < old {
		return f.pushShrink(attrs, old)
	}
	return nil
}

// pushShrink writes a truncation through to the lower layer. This layer's
// cache and its holders may hold blocks the lower layer never saw, which
// the storage owner's purge cannot reach, so the layer first clears them
// itself: the straddling block is flushed back from its holders and its
// tail cleared, and every block past the new end is discarded here and
// above. The length is normally write-behind, so the lower layer may never
// have seen the file's current extent — push that next, or the lower layer
// would read the shrink as an extension and clear nothing. The shrink that
// follows makes the storage-owning layer zero the straddling block and
// purge the vacated range below.
func (f *cohFile) pushShrink(attrs fsys.Attributes, old vm.Offset) error {
	end := attrs.Length
	if tail := end % BlockSize; tail != 0 {
		f.revoke([]int64{end / BlockSize}, flushBack, nil, func(_ int64, b *blockState, _ bool) {
			b.epoch++
			if b.valid {
				clear(b.data[tail:])
				b.version++
			}
		})
	}
	f.revoke(f.blockNumbers((end+BlockSize-1)/BlockSize, math.MaxInt64), deleteRange, nil, func(_ int64, b *blockState, _ bool) {
		b.epoch++
		b.discard()
	})
	grown := attrs
	grown.Length = old
	if err := f.pushLowerAttrs(grown); err != nil {
		return err
	}
	return f.pushLowerAttrs(attrs)
}

// SetReadAhead enables read-ahead on the file's server-side mapping: each
// fault asks the layer below for up to extra additional sequential pages
// (Section 8 of the paper).
func (f *cohFile) SetReadAhead(extra int) { f.io.SetReadAhead(extra) }

// ReadAt implements fsys.File.
func (f *cohFile) ReadAt(p []byte, off int64) (int, error) {
	t := opRead.Start()
	n, err := f.io.ReadAt(p, off)
	opRead.End(t, int64(n))
	if n > 0 {
		f.attrs.Mutate(func(a *fsys.Attributes) { a.AccessTime = time.Now() })
	}
	return n, err
}

// WriteAt implements fsys.File.
func (f *cohFile) WriteAt(p []byte, off int64) (int, error) {
	t := opWrite.Start()
	n, err := f.io.WriteAt(p, off)
	opWrite.End(t, int64(n))
	if n > 0 {
		f.attrs.Mutate(func(a *fsys.Attributes) { a.ModifyTime = time.Now() })
	}
	return n, err
}

// Stat implements fsys.File, served from the attribute cache.
func (f *cohFile) Stat() (fsys.Attributes, error) {
	t := opStat.Start()
	attrs, err := f.cachedAttrs()
	opStat.End(t, 0)
	return attrs, err
}

// Retain implements fsys.HandleFile, forwarding the open-handle count to
// the layer that owns the storage (unlink-while-open defers reclamation to
// the last release).
func (f *cohFile) Retain() { fsys.Retain(f.lower) }

// Release implements fsys.HandleFile.
func (f *cohFile) Release() error { return fsys.Release(f.lower) }

// Sync implements fsys.File: push modified pages from the local mapping
// into this layer, write dirty blocks and attributes through to the lower
// layer, and sync the lower file.
func (f *cohFile) Sync() error {
	if err := f.io.Sync(); err != nil {
		return err
	}
	if err := f.flushAll(); err != nil {
		return err
	}
	return f.lower.Sync()
}

// ---- pager objects handed to upper cache managers ----

// cohPager is the fs_pager the coherency layer exports to one upper cache
// manager (one per pager-cache connection).
type cohPager struct {
	file *cohFile
	conn *fsys.Connection
}

var (
	_ fsys.FsPagerObject   = (*cohPager)(nil)
	_ fsys.ConnectionAware = (*cohPager)(nil)
	_ vm.HintedPager       = (*cohPager)(nil)
)

// AttachConnection implements fsys.ConnectionAware.
func (p *cohPager) AttachConnection(c *fsys.Connection) { p.conn = c }

// PageIn implements vm.PagerObject.
func (p *cohPager) PageIn(offset, size vm.Offset, access vm.Rights) ([]byte, error) {
	if !vm.PageAligned(offset, size) {
		return nil, vm.ErrUnaligned
	}
	if access.NoData() {
		return nil, p.file.grantWrite(p.conn, offset, size)
	}
	access = access.Access() // holders record rights, never the modifier
	pns := blockRange(offset, size)
	if len(pns) > 1 {
		// Revoke the whole range in runs first; the per-block protocol
		// below then finds nothing left to call out for, bar a race.
		if p.file.revoke(pns, revokeModeFor(access), p.conn, nil) {
			return nil, ErrHolderUnreachable
		}
	}
	out := make([]byte, size)
	for _, pn := range pns {
		data, err := p.file.pageInBlock(p.conn, pn, access)
		if err != nil {
			return nil, err
		}
		copy(out[pn*BlockSize-offset:], data)
	}
	return out, nil
}

// PageInHint implements vm.HintedPager (the Section 8 read-ahead
// extension): the pager may return more data than strictly needed. The
// coherency layer forwards the (minSize, maxSize) hint range to the
// layer below — whose sequential-stream detector decides how far ahead
// to actually read — installs whatever came back in one clustered
// transfer, and serves that much to the caller.
func (p *cohPager) PageInHint(offset, minSize, maxSize vm.Offset, access vm.Rights) ([]byte, error) {
	length, err := p.file.lengthNoPoll()
	if err != nil {
		return nil, err
	}
	end := vm.RoundUp(length)
	if offset+maxSize > end {
		maxSize = end - offset
	}
	if maxSize < minSize {
		maxSize = minSize
	}
	size := p.file.prefetch(offset, minSize, maxSize, access)
	return p.PageIn(offset, size, access)
}

// prefetch pulls the invalid blocks of [offset, offset+maxSize) from the
// lower layer in one bulk transfer and installs them, validating each
// block's epoch so a revocation that lands mid-flight discards the stale
// copy (the per-block protocol then refetches it). It returns how many
// bytes (at least minSize) the caller should serve: the full window when
// every block is already cached or held by a writer above (whose copy the
// per-block protocol reclaims), what the lower layer actually granted
// when it was consulted, and just minSize on any error (the normal
// single-block path takes over).
func (f *cohFile) prefetch(offset, minSize, maxSize vm.Offset, access vm.Rights) vm.Offset {
	first, last := vm.PageRange(offset, maxSize)
	n := last - first + 1
	if n <= 1 {
		return minSize
	}
	// Snapshot epochs and validity without holding any block across the
	// downward call.
	epochs := make([]uint64, n)
	missing := false
	for pn := first; pn <= last; pn++ {
		b := f.acquire(pn)
		epochs[pn-first] = b.epoch
		if !b.valid && !b.hasWriter() {
			missing = true
		}
		f.release(b)
	}
	if !missing {
		return maxSize
	}
	pager, err := f.conn.Pager()
	if err != nil {
		return minSize
	}
	var bulk []byte
	t := opPageIn.Start()
	if hp, ok := spring.Narrow[vm.HintedPager](pager); ok {
		bulk, err = hp.PageInHint(first*BlockSize, minSize, maxSize, access)
	} else {
		bulk, err = pager.PageIn(first*BlockSize, minSize, access)
	}
	opPageIn.End(t, int64(len(bulk)))
	if err != nil || vm.Offset(len(bulk)) < minSize {
		return minSize
	}
	f.fs.LowerPageIns.Inc()
	got := vm.Offset(len(bulk)) - vm.Offset(len(bulk))%BlockSize
	if got > maxSize {
		got = maxSize
	}
	for pn := first; pn*BlockSize < first*BlockSize+got; pn++ {
		b := f.acquire(pn)
		if !b.valid && b.epoch == epochs[pn-first] {
			b.data = make([]byte, BlockSize)
			copy(b.data, bulk[(pn-first)*BlockSize:])
			b.valid = true
			b.dirty = false
			b.version++
		}
		f.release(b)
	}
	if got < minSize {
		got = minSize
	}
	return got
}

// PageOut implements vm.PagerObject: the caller no longer retains the
// data; the layer caches it dirty (write-behind).
func (p *cohPager) PageOut(offset, size vm.Offset, data []byte) error {
	return p.store(offset, size, data, -1, false)
}

// WriteOut implements vm.PagerObject: the caller retains read-only.
func (p *cohPager) WriteOut(offset, size vm.Offset, data []byte) error {
	return p.store(offset, size, data, int(vm.RightsRead), false)
}

// Sync implements vm.PagerObject: the caller retains its mode; the data is
// written through to the lower layer for durability.
func (p *cohPager) Sync(offset, size vm.Offset, data []byte) error {
	return p.store(offset, size, data, int(vm.RightsWrite), true)
}

func (p *cohPager) store(offset, size vm.Offset, data []byte, retain int, through bool) error {
	if !vm.PageAligned(offset, size) {
		return vm.ErrUnaligned
	}
	if int64(len(data)) < size {
		return fmt.Errorf("coherency: short data: %d < %d", len(data), size)
	}
	var pns []int64
	for pn := offset / BlockSize; pn*BlockSize < offset+size; pn++ {
		p.file.storeBlock(p.conn, pn, data[pn*BlockSize-offset:(pn+1)*BlockSize-offset], retain)
		pns = append(pns, pn)
	}
	if through {
		// A multi-block extent (the VMM's clustered write-back) goes down
		// as clustered runs too, instead of one lower call per block.
		return p.file.writeThroughRuns(pns)
	}
	return nil
}

// DoneWithPagerObject implements vm.PagerObject: drop the connection's
// holdings.
func (p *cohPager) DoneWithPagerObject() {
	f := p.file
	f.revoke(f.blockNumbers(0, math.MaxInt64), holdOnly, nil, func(_ int64, b *blockState, _ bool) {
		delete(b.holders, p.conn)
	})
	f.fs.table.Remove(p.conn.Manager, f.backing)
}

// GetAttributes implements fsys.FsPagerObject, served from the attribute
// cache.
func (p *cohPager) GetAttributes() (fsys.Attributes, error) {
	return p.file.cachedAttrs()
}

// SetAttributes implements fsys.FsPagerObject (attribute write-behind).
// Peers' attribute caches are invalidated so they refetch. A shrink is
// written through to the storage-owning layer, like cohFile.SetLength.
func (p *cohPager) SetAttributes(attrs fsys.Attributes) error {
	old, err := p.file.cachedAttrs()
	if err != nil {
		return err
	}
	p.file.attrs.Update(attrs)
	p.file.invalidateUpperAttrs(p.conn)
	if attrs.Length < old.Length {
		return p.file.pushShrink(attrs, old.Length)
	}
	return nil
}

// dropAll flushes the file's dirty blocks to the lower layer, revokes
// every upper holding, and discards the layer's cached copies, leaving the
// file fully cold (benchmark/test hook).
func (f *cohFile) dropAll() error {
	if err := f.flushAll(); err != nil {
		return err
	}
	pns := f.blockNumbers(0, math.MaxInt64)
	// Reconcile any late writers and remove every holder, write what that
	// brought in, then discard whatever is clean.
	f.revoke(pns, flushBack, nil, func(_ int64, b *blockState, _ bool) { b.epoch++ })
	if err := f.writeThroughRuns(pns); err != nil {
		return err
	}
	f.revoke(pns, holdOnly, nil, func(_ int64, b *blockState, _ bool) {
		if !b.dirty {
			b.discard()
		}
	})
	return nil
}
