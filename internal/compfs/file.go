package compfs

import (
	"encoding/binary"
	"io"
	"sync"
	"sync/atomic"

	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/stats"
	"springfs/internal/vm"
)

// Instrumented operations (docs/OBSERVABILITY.md): the hot tier covers the
// client-visible read/write path; compfs.page_in is always-on and marks
// fetches of compressed data from the lower layer.
var (
	opRead  = stats.NewHotOp("compfs.read", stats.BoundaryDirect)
	opWrite = stats.NewHotOp("compfs.write", stats.BoundaryDirect)

	opPageIn = stats.NewOp("compfs.page_in", stats.BoundaryDirect)
)

// compFile is one COMPFS file: a transforming wrapper around a lower file
// holding the compressed image. Data writes are write-through (compressed
// immediately into the lower file); the block table is cached in memory
// and written back on Sync.
type compFile struct {
	fs      *CompFS
	lower   fsys.File
	backing uint64

	mu       sync.Mutex
	tbl      *blockTable // nil until loaded
	tblDirty bool

	// conn is the cache-manager connection to the underlying file (the
	// C3–P3 connection of Figure 6); nil in ModeNonCoherent. Reads go
	// through its pager so the lower layer tracks COMPFS as a holder and
	// its revocations reach compCacheObject.
	conn *fsys.LowerConn

	// tblStale is set (lock-free) by lower-layer revocations: the cached
	// block table must be reloaded before the next use. It is lock-free
	// because revocations arrive while the lower layer holds its
	// per-block protocol state, possibly during one of this file's own
	// lower-layer calls — taking f.mu here would deadlock.
	tblStale atomic.Bool
}

var (
	_ fsys.File             = (*compFile)(nil)
	_ naming.ProxyWrappable = (*compFile)(nil)
)

// WrapForChannel implements naming.ProxyWrappable.
func (f *compFile) WrapForChannel(ch *spring.Channel) naming.Object {
	return fsys.NewFileProxy(ch, f)
}

// Lower returns the underlying file (tests).
func (f *compFile) Lower() fsys.File { return f.lower }

// compCacheObject receives the lower layer's coherency actions. COMPFS
// holds no dirty compressed data (writes are write-through), so flush
// operations return nothing; every action invalidates the cached block
// table and the caches of file_COMP's own clients, which is what makes
// mappings of file_SFS and file_COMP coherent (Figure 6).
type compCacheObject struct {
	vm.NopCache // DenyWrites, WriteBack: the lower file is held read-only
	f           *compFile
}

var _ vm.CacheObject = (*compCacheObject)(nil)

func (c *compCacheObject) invalidate() {
	f := c.f
	f.fs.Invalidations.Inc()
	// Mark the cached block table stale; the next operation reloads it
	// from the (changed) underlying file. Lock-free — see tblStale.
	f.tblStale.Store(true)
	// Invalidate everyone caching uncompressed file_COMP data.
	for _, conn := range f.fs.table.ConnectionsFor(f.backing) {
		conn.Cache.DeleteRange(0, 1<<62)
		if conn.FsCache != nil {
			conn.FsCache.InvalidateAttributes()
		}
	}
}

// FlushBack implements vm.CacheObject.
func (c *compCacheObject) FlushBack(offset, size vm.Offset) []vm.Data {
	c.invalidate()
	return nil
}

// DeleteRange implements vm.CacheObject.
func (c *compCacheObject) DeleteRange(offset, size vm.Offset) { c.invalidate() }

// ZeroFill implements vm.CacheObject.
func (c *compCacheObject) ZeroFill(offset, size vm.Offset) { c.invalidate() }

// Populate implements vm.CacheObject.
func (c *compCacheObject) Populate(offset, size vm.Offset, access vm.Rights, data []byte) {
	c.invalidate()
}

// DestroyCache implements vm.CacheObject.
func (c *compCacheObject) DestroyCache() { c.invalidate() }

// ---- metadata ----

// readLower reads len(p) bytes at off from the underlying file. In
// coherent mode the read goes through the pager connection (bound by the
// first read), which registers COMPFS as a holder of the covered blocks so
// that later direct writes to the underlying file revoke (and thereby
// notify) COMPFS. In non-coherent mode — Figure 5 — or when the bind fails,
// the plain file interface is used and no notification ever arrives.
// It returns how many bytes the lower layer actually provided: a short
// count means the extent runs past the lower file's end (truncation or a
// sparse tail), and callers must not treat the missing bytes as data.
func (f *compFile) readLower(p []byte, off int64) (int, error) {
	t := opPageIn.Start()
	var pager vm.PagerObject
	if f.conn != nil {
		pager, _ = f.conn.Pager()
	}
	if pager == nil {
		n, err := f.lower.ReadAt(p, off)
		if err == io.EOF {
			err = nil
		}
		if err == nil {
			opPageIn.End(t, int64(n))
		}
		return n, err
	}
	// PageIn is page-granular and never returns short: pages straddling
	// the lower file's end come back zero-filled or — after a shrink —
	// may still carry a stale cached tail. Clamp to the lower length so
	// bytes past EOF are reported as not provided, like ReadAt would.
	length, err := f.lower.GetLength()
	if err != nil {
		return 0, err
	}
	if off >= length {
		return 0, nil
	}
	want := int64(len(p))
	if off+want > length {
		want = length - off
	}
	start := off / BlockSize * BlockSize
	end := (off + want + BlockSize - 1) / BlockSize * BlockSize
	data, err := pager.PageIn(start, end-start, vm.RightsRead)
	if err != nil {
		return 0, err
	}
	opPageIn.End(t, end-start)
	if off-start >= int64(len(data)) {
		return 0, nil
	}
	avail := data[off-start:]
	if int64(len(avail)) > want {
		avail = avail[:want]
	}
	return copy(p, avail), nil
}

// loadTableLocked reads the header and block table from the lower file.
// Caller holds f.mu. A staleness mark from a lower-layer revocation drops
// the cached table first, unless COMPFS itself has unflushed table
// updates (it then owns the latest mapping; mixing direct rewrites of the
// compressed image with concurrent COMPFS writes is undefined).
func (f *compFile) loadTableLocked() error {
	if f.tblStale.Swap(false) && !f.tblDirty {
		f.tbl = nil
	}
	if f.tbl != nil {
		return nil
	}
	length, err := f.lower.GetLength()
	if err != nil {
		return err
	}
	if length == 0 {
		f.tbl = newBlockTable()
		return nil
	}
	hdr := make([]byte, 64)
	if n, err := f.readLower(hdr, 0); err != nil {
		return err
	} else if n < len(hdr) {
		return ErrBadFormat
	}
	be := binary.BigEndian
	if be.Uint64(hdr[0:]) != Magic {
		return ErrBadFormat
	}
	tbl := newBlockTable()
	tbl.uncompLen = int64(be.Uint64(hdr[12:]))
	tableOff := int64(be.Uint64(hdr[20:]))
	tableLen := int64(be.Uint64(hdr[28:]))
	tbl.nextFree = int64(be.Uint64(hdr[36:]))
	if tableLen > 0 {
		raw := make([]byte, tableLen)
		if n, err := f.readLower(raw, tableOff); err != nil {
			return err
		} else if int64(n) < tableLen {
			return ErrBadFormat
		}
		blocks, err := decodeBlockTable(raw)
		if err != nil {
			return err
		}
		tbl.blocks = blocks
	}
	f.tbl = tbl
	return nil
}

// writeMetaLocked appends the current table to the log and rewrites the
// header to point at it. Caller holds f.mu with f.tbl loaded.
func (f *compFile) writeMetaLocked() error {
	tbl := f.tbl
	raw := tbl.encode()
	tableOff := tbl.nextFree
	if _, err := f.lower.WriteAt(raw, tableOff); err != nil {
		return err
	}
	tbl.nextFree = tableOff + int64(len(raw))
	hdr := make([]byte, 64)
	be := binary.BigEndian
	be.PutUint64(hdr[0:], Magic)
	be.PutUint32(hdr[8:], 1)
	be.PutUint64(hdr[12:], uint64(tbl.uncompLen))
	be.PutUint64(hdr[20:], uint64(tableOff))
	be.PutUint64(hdr[28:], uint64(len(raw)))
	be.PutUint64(hdr[36:], uint64(tbl.nextFree))
	if _, err := f.lower.WriteAt(hdr, 0); err != nil {
		return err
	}
	f.tblDirty = false
	return nil
}

// initImage writes the empty COMPFS image into a freshly created lower
// file.
func (f *compFile) initImage() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tbl = newBlockTable()
	return f.writeMetaLocked()
}

// readBlockLocked fills dst with the uncompressed content of block bn.
// Caller holds f.mu with the table loaded.
func (f *compFile) readBlockLocked(bn int64, dst []byte) error {
	e, ok := f.tbl.blocks[bn]
	if !ok {
		clear(dst) // hole
		return nil
	}
	raw := make([]byte, e.clen)
	n, err := f.readLower(raw, e.off)
	if err != nil {
		return err
	}
	// Only decompress the bytes the lower layer actually returned. An
	// extent whose backing is all zeros (a lower-layer hole, or a short
	// read past a truncated tail) decodes to a hole of zeros, eCryptfs
	// style — compressBlock never raw-stores an all-zero block (zeros
	// compress), so real data is never misread as a hole. A raw-stored
	// block cut short keeps its implicit zero tail; a truncated flate
	// stream fails loudly in decompressBlock instead of inflating the
	// stale tail of the buffer as if it were data.
	switch {
	case allZero(raw[:n]):
		clear(dst)
	case n < len(raw) && int64(e.clen) == BlockSize:
		copy(dst, raw) // raw-stored: missing tail reads as zeros
	default:
		blk, err := decompressBlock(raw[:n])
		if err != nil {
			return err
		}
		copy(dst, blk)
	}
	return nil
}

// allZero reports whether b contains no nonzero byte.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// writeBlockLocked compresses and appends block bn (write-through).
// Caller holds f.mu with the table loaded.
func (f *compFile) writeBlockLocked(bn int64, data []byte) error {
	comp, err := compressBlock(data)
	if err != nil {
		return err
	}
	off := f.tbl.nextFree
	if _, err := f.lower.WriteAt(comp, off); err != nil {
		return err
	}
	f.tbl.nextFree = off + int64(len(comp))
	f.tbl.blocks[bn] = extent{off: off, clen: int32(len(comp))}
	f.tblDirty = true
	f.fs.UncompressedBytes.Add(BlockSize)
	f.fs.CompressedBytes.Add(int64(len(comp)))
	return nil
}

// ---- file interface ----

// ReadAt implements fsys.File.
func (f *compFile) ReadAt(p []byte, off int64) (int, error) {
	t := opRead.Start()
	defer func() { opRead.End(t, int64(len(p))) }()
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.loadTableLocked(); err != nil {
		return 0, err
	}
	return fsys.ReadBlocksAt(p, off, f.tbl.uncompLen, f.readBlockLocked)
}

// WriteAt implements fsys.File: read-modify-write at block granularity,
// written through compressed.
func (f *compFile) WriteAt(p []byte, off int64) (int, error) {
	t := opWrite.Start()
	defer func() { opWrite.End(t, int64(len(p))) }()
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.loadTableLocked(); err != nil {
		return 0, err
	}
	done, err := fsys.WriteBlocksAt(p, off, f.readBlockLocked, f.writeBlockLocked)
	if err != nil {
		return done, err
	}
	if off+int64(done) > f.tbl.uncompLen {
		f.tbl.uncompLen = off + int64(done)
		f.tblDirty = true
	}
	return done, nil
}

// Bind implements vm.MemoryObject: COMPFS is the pager for file_COMP (the
// P2/C2 connection of Figure 5); binds terminate here, unlike DFS's
// forwarding, because the exported data differs from the underlying data
// so no cache sharing is possible (Section 4.2.2, last paragraph).
func (f *compFile) Bind(caller vm.CacheManager, access vm.Rights, offset, length vm.Offset) (vm.CacheRights, error) {
	rights, _, _ := f.fs.table.Bind(caller, f.backing, func() vm.PagerObject {
		return &fsys.FilePager{File: f, In: f.pageIn, Out: f.pageOut, SyncAfterOut: true}
	})
	return rights, nil
}

// GetLength implements vm.MemoryObject.
func (f *compFile) GetLength() (vm.Offset, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.loadTableLocked(); err != nil {
		return 0, err
	}
	return f.tbl.uncompLen, nil
}

// SetLength implements vm.MemoryObject. On a shrink, whole blocks past the
// new length are dropped, the tail of the straddling block is zeroed, and
// cached pages past the new length are revoked — so a later regrow cannot
// resurrect the truncated bytes.
func (f *compFile) SetLength(length vm.Offset) error {
	cur, err := f.GetLength()
	if err != nil {
		return err
	}
	tail := length % BlockSize
	blockOff := length - tail
	var flushed []vm.Data
	if length < cur {
		// Cache call-outs cross domains: never under f.mu.
		for _, c := range f.fs.table.ConnectionsFor(f.backing) {
			if tail != 0 {
				flushed = append(flushed, c.Cache.FlushBack(blockOff, BlockSize)...)
			}
			c.Cache.DeleteRange(blockOff, 1<<62)
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.loadTableLocked(); err != nil {
		return err
	}
	if length < f.tbl.uncompLen {
		for bn := range f.tbl.blocks {
			if bn*BlockSize >= length {
				delete(f.tbl.blocks, bn)
			}
		}
		if tail != 0 {
			_, live := f.tbl.blocks[length/BlockSize]
			if live || len(flushed) > 0 {
				// The straddling block as it stands: stored, then
				// overlaid with what the caches just flushed back.
				current := func(bn int64, blk []byte) error {
					if err := f.readBlockLocked(bn, blk); err != nil {
						return err
					}
					for _, d := range flushed {
						if d.Offset <= blockOff && blockOff+BlockSize <= d.Offset+vm.Offset(len(d.Bytes)) {
							copy(blk, d.Bytes[blockOff-d.Offset:])
						}
					}
					return nil
				}
				if err := fsys.ZeroTail(current, f.writeBlockLocked, length); err != nil {
					return err
				}
			}
		}
	}
	f.tbl.uncompLen = length
	f.tblDirty = true
	return nil
}

// Stat implements fsys.File: length is the uncompressed length; times come
// from the underlying file.
func (f *compFile) Stat() (fsys.Attributes, error) {
	lowerAttrs, err := f.lower.Stat()
	if err != nil {
		return fsys.Attributes{}, err
	}
	length, err := f.GetLength()
	if err != nil {
		return fsys.Attributes{}, err
	}
	return fsys.Attributes{
		Length:     length,
		AccessTime: lowerAttrs.AccessTime,
		ModifyTime: lowerAttrs.ModifyTime,
	}, nil
}

// Sync implements fsys.File: persist the block table and sync below.
func (f *compFile) Sync() error {
	f.mu.Lock()
	if f.tbl != nil && f.tblDirty {
		if err := f.writeMetaLocked(); err != nil {
			f.mu.Unlock()
			return err
		}
	}
	f.mu.Unlock()
	return f.lower.Sync()
}

// Retain implements fsys.HandleFile, forwarding toward the storage owner.
func (f *compFile) Retain() { fsys.Retain(f.lower) }

// Release implements fsys.HandleFile.
func (f *compFile) Release() error { return fsys.Release(f.lower) }

// Compact rewrites the compressed image dropping garbage extents left by
// the append-only log, returning bytes reclaimed.
func (f *compFile) Compact() (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.loadTableLocked(); err != nil {
		return 0, err
	}
	oldEnd := f.tbl.nextFree
	// Read every live block, then rewrite the log densely.
	type live struct {
		bn   int64
		data []byte
	}
	var blocks []live
	for bn := range f.tbl.blocks {
		data := make([]byte, BlockSize)
		if err := f.readBlockLocked(bn, data); err != nil {
			return 0, err
		}
		blocks = append(blocks, live{bn, data})
	}
	f.tbl.blocks = make(map[int64]extent, len(blocks))
	f.tbl.nextFree = HeaderSize
	for _, lb := range blocks {
		if err := f.writeBlockLocked(lb.bn, lb.data); err != nil {
			return 0, err
		}
	}
	if err := f.writeMetaLocked(); err != nil {
		return 0, err
	}
	if err := f.lower.SetLength(f.tbl.nextFree); err != nil {
		return 0, err
	}
	reclaimed := oldEnd - f.tbl.nextFree
	if reclaimed < 0 {
		reclaimed = 0
	}
	return reclaimed, nil
}

// pageIn and pageOut are the data movers of the pager COMPFS exports for
// file_COMP (the P2 object of Figure 5): page-ins uncompress, page-outs
// compress, and the pager's Sync persists the block table.
func (f *compFile) pageIn(offset, size vm.Offset, access vm.Rights) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.loadTableLocked(); err != nil {
		return nil, err
	}
	out := make([]byte, size)
	if err := fsys.EachBlock(offset, size, out, f.readBlockLocked); err != nil {
		return nil, err
	}
	return out, nil
}

func (f *compFile) pageOut(offset, size vm.Offset, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.loadTableLocked(); err != nil {
		return err
	}
	return fsys.EachBlock(offset, size, data, f.writeBlockLocked)
}
