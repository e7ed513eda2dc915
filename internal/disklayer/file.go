package disklayer

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"springfs/internal/blockdev"
	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/stats"
	"springfs/internal/vm"
)

// diskFile is a regular file served by the disk layer. It implements the
// Spring file interface: a memory object (bindable, mappable) plus
// read/write operations implemented by mapping the file through the local
// VMM (fsys.MappedIO).
type diskFile struct {
	fs  *DiskFS
	ino uint64
	io  *fsys.MappedIO

	// refs counts open handles (fsys.Retain/Release), guarded by fs.mu.
	// A file unlinked while refs > 0 is orphaned rather than freed; the
	// last Release reclaims it.
	refs int

	// truncGen counts shrinks (truncate paths and the final orphan
	// reclaim). Pagers compare it against the generation their read-ahead
	// window was built under: a stream detected before a shrink describes
	// byte ranges that may no longer exist, and chasing it would issue
	// dead page-ins past the new EOF and misattribute the speculation to
	// the hit/wasted counters.
	truncGen atomic.Uint64
}

var (
	_ fsys.File             = (*diskFile)(nil)
	_ fsys.Appender         = (*diskFile)(nil)
	_ fsys.HandleFile       = (*diskFile)(nil)
	_ naming.ProxyWrappable = (*diskFile)(nil)
)

// Ino returns the file's inode number (tests and diagnostics).
func (f *diskFile) Ino() uint64 { return f.ino }

// WrapForChannel implements naming.ProxyWrappable.
func (f *diskFile) WrapForChannel(ch *spring.Channel) naming.Object {
	return fsys.NewFileProxy(ch, f)
}

// Bind implements vm.MemoryObject: establish or reuse the pager-cache
// connection between this file's pager and the calling cache manager.
func (f *diskFile) Bind(caller vm.CacheManager, access vm.Rights, offset, length vm.Offset) (vm.CacheRights, error) {
	rights, _, _ := f.fs.table.Bind(caller, f.ino, func() vm.PagerObject {
		return &diskPager{file: f}
	})
	return rights, nil
}

// GetLength implements vm.MemoryObject.
func (f *diskFile) GetLength() (vm.Offset, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	ci, err := f.fs.readInode(f.ino)
	if err != nil {
		return 0, err
	}
	return ci.in.length, nil
}

// SetLength implements vm.MemoryObject. A shrink frees blocks, which is a
// journaled metadata mutation; the wholly-vacated cached pages are purged
// (outside the lock) and the straddling block's dropped tail is zeroed, so
// a later re-extension reads zeros, not the old data.
func (f *diskFile) SetLength(length vm.Offset) error {
	cur, err := f.GetLength()
	if err != nil {
		return err
	}
	if length < cur {
		if err := f.zeroTail(length); err != nil {
			return err
		}
	}
	shrunk := false
	defer func() {
		if shrunk {
			f.fs.purgeCachedPages(f.ino, vm.RoundUp(length))
		}
	}()
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	ci, err := f.fs.readInode(f.ino)
	if err != nil {
		return err
	}
	if length < ci.in.length {
		shrunk = true
		f.truncGen.Add(1)
		return f.fs.withTxn(func() error {
			return f.fs.truncateLocked(ci, length)
		})
	}
	ci.in.length = length
	ci.in.mtime = f.fs.now()
	ci.dirty = true
	return nil
}

// zeroTail clears the dropped bytes of the block that straddles a shrink's
// new end-of-file. Wholly-vacated blocks are freed by the truncate and read
// back as holes, but the straddling block survives with its tail bytes
// intact — on the device and in any cache above — and a later re-extension
// would expose them as file content. The straddling page is pulled out of
// every cache (FlushBack reconciles modified data and propagates the
// removal up through stacked coherency layers), the reconciled block is
// zeroed past the new length, and the result written back; later faults
// re-read the cleaned block.
//
// Must be called without fs.mu held: the cache call-outs cross domains and
// the write-back takes the lock itself.
func (f *diskFile) zeroTail(length vm.Offset) error {
	tail := length % BlockSize
	if tail == 0 {
		return nil
	}
	blockOff := length - tail
	var flushed []vm.Data
	for _, c := range f.fs.table.ConnectionsFor(f.ino) {
		flushed = append(flushed, c.Cache.FlushBack(blockOff, BlockSize)...)
	}
	f.fs.mu.Lock()
	ci, err := f.fs.readInode(f.ino)
	if err != nil {
		f.fs.mu.Unlock()
		return err
	}
	bn, err := f.fs.bmap(ci, blockOff/BlockSize, nil)
	f.fs.mu.Unlock()
	if err != nil {
		return err
	}
	if bn == 0 && len(flushed) == 0 {
		return nil // a hole: already reads as zeros
	}
	buf := make([]byte, BlockSize)
	if bn != 0 {
		if err := f.fs.dev.ReadBlock(bn, buf); err != nil {
			return err
		}
	}
	for _, d := range flushed {
		if d.Offset <= blockOff && blockOff+BlockSize <= d.Offset+vm.Offset(len(d.Bytes)) {
			copy(buf, d.Bytes[blockOff-d.Offset:])
		}
	}
	for i := tail; i < BlockSize; i++ {
		buf[i] = 0
	}
	p := &diskPager{file: f}
	return p.PageOut(blockOff, BlockSize, buf)
}

// ReadAt implements fsys.File.
func (f *diskFile) ReadAt(p []byte, off int64) (int, error) {
	t := opRead.Start()
	n, err := f.io.ReadAt(p, off)
	opRead.End(t, int64(n))
	if n > 0 {
		f.touch(false)
	}
	return n, err
}

// WriteAt implements fsys.File.
func (f *diskFile) WriteAt(p []byte, off int64) (int, error) {
	t := opWrite.Start()
	n, err := f.io.WriteAt(p, off)
	opWrite.End(t, int64(n))
	if n > 0 {
		f.touch(true)
	}
	return n, err
}

// touch updates the access (and optionally modify) time in the i-node
// cache; the update reaches disk on the next inode write-back.
func (f *diskFile) touch(modified bool) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	ci, err := f.fs.readInode(f.ino)
	if err != nil {
		return
	}
	if ci.in.mode != ModeFile {
		return
	}
	now := f.fs.now()
	ci.in.atime = now
	if modified {
		ci.in.mtime = now
	}
	ci.dirty = true
}

// Append implements fsys.Appender: the end-of-file offset is read and the
// byte range reserved in one critical section under the metadata lock, so
// concurrent appenders always land on disjoint ranges; the data write then
// proceeds outside the lock at the reserved offset.
func (f *diskFile) Append(p []byte) (int64, int, error) {
	f.fs.mu.Lock()
	ci, err := f.fs.readInode(f.ino)
	if err != nil {
		f.fs.mu.Unlock()
		return 0, 0, err
	}
	if ci.in.mode != ModeFile {
		f.fs.mu.Unlock()
		return 0, 0, ErrBadInode
	}
	off := ci.in.length
	ci.in.length = off + int64(len(p))
	ci.in.mtime = f.fs.now()
	ci.dirty = true
	f.fs.mu.Unlock()
	t := opWrite.Start()
	n, err := f.io.WriteAt(p, off)
	opWrite.End(t, int64(n))
	return off, n, err
}

// Retain implements fsys.HandleFile: record one more open handle.
func (f *diskFile) Retain() {
	f.fs.mu.Lock()
	f.refs++
	f.fs.mu.Unlock()
}

// Release implements fsys.HandleFile: drop one handle and, when the file
// was unlinked while open and this was the last handle, reclaim its inode
// and blocks in a journal transaction of its own. A crash before that
// transaction commits leaves the orphan for Mount's sweep.
func (f *diskFile) Release() error {
	freed := false
	defer func() {
		if freed {
			f.fs.purgeCachedPages(f.ino, 0)
		}
	}()
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.refs > 0 {
		f.refs--
	}
	if f.refs > 0 || f.fs.closed {
		return nil
	}
	ci, err := f.fs.readInode(f.ino)
	if err != nil {
		return err
	}
	if ci.in.mode != ModeFile || ci.in.nlink > 0 {
		return nil
	}
	err = f.fs.withTxn(func() error {
		return f.fs.freeInode(f.ino)
	})
	delete(f.fs.files, f.ino)
	freed = err == nil
	if freed {
		f.truncGen.Add(1)
	}
	return err
}

// Stat implements fsys.File. It is served from the i-node cache without
// disk I/O.
func (f *diskFile) Stat() (fsys.Attributes, error) {
	t := opStat.Start()
	defer opStat.End(t, 0)
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	ci, err := f.fs.readInode(f.ino)
	if err != nil {
		return fsys.Attributes{}, err
	}
	if ci.in.mode != ModeFile {
		return fsys.Attributes{}, ErrBadInode
	}
	return fsys.Attributes{
		Length:     ci.in.length,
		AccessTime: time.Unix(0, ci.in.atime),
		ModifyTime: time.Unix(0, ci.in.mtime),
	}, nil
}

// Sync implements fsys.File: push cached modified pages to the pager (the
// disk) and write the inode back (a one-inode journal transaction, whose
// commit barrier also covers the data of plain overwrites). A clean inode
// means nothing is left to do: every page-out either committed the inode
// after writing its data or left it dirty.
func (f *diskFile) Sync() error {
	if err := f.io.Sync(); err != nil {
		return err
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	ci, err := f.fs.readInode(f.ino)
	if err != nil {
		return err
	}
	if ci.in.mode != ModeFile || !ci.dirty {
		return nil
	}
	return f.fs.withTxn(func() error {
		return f.fs.writeInode(ci)
	})
}

// Read-ahead effectiveness counters. A "hit" is a speculatively-fetched
// page whose stream continued into it (the prefetch saved a fault); a
// "wasted" page was prefetched for a stream that never came back.
var (
	raHits   = stats.Default.Counter("disk.readahead.hits")
	raWasted = stats.Default.Counter("disk.readahead.wasted")
)

// Read-ahead window bounds (pages): a freshly detected stream starts at
// raInitPages and doubles on every confirmed sequential fault up to
// raMaxPages, FFS/SunOS style.
const (
	raInitPages = 4
	raMaxPages  = 64
)

// diskPager is the per-file fs_pager of the disk layer. Page-ins and
// page-outs perform real disk I/O; attributes come from the i-node cache.
// The disk layer is non-coherent: the pager does not reconcile multiple
// cache managers (stack the coherency layer for that). It supports the
// page-in hint extension so read-ahead pulls sequential blocks cheaply.
//
// Each pager carries its own sequential-stream detector (one pager per
// cache-manager connection, so two clients scanning the same file do not
// confuse each other's streams): when a hinted page-in lands exactly where
// the previous grant ended, the read-ahead window doubles; any other
// offset resets it. The window rides on top of the caller's (minSize,
// maxSize) hint range — the pager never returns more than the VMM asked
// it to consider.
type diskPager struct {
	file *diskFile

	raMu      sync.Mutex
	raGen     uint64    // file truncGen the window was built against
	raNext    vm.Offset // where the stream's next fault lands if sequential
	raWindow  int       // current speculative pages per fault
	raPending int       // speculative pages granted but not yet accounted
}

var (
	_ fsys.FsPagerObject = (*diskPager)(nil)
	_ vm.HintedPager     = (*diskPager)(nil)
)

// PageIn implements vm.PagerObject.
func (p *diskPager) PageIn(offset, size vm.Offset, access vm.Rights) ([]byte, error) {
	if !vm.PageAligned(offset, size) {
		return nil, vm.ErrUnaligned
	}
	if access.NoData() {
		// The caller overwrites the range whole and the disk layer keeps no
		// holders to revoke: there is nothing to do, least of all a read.
		return nil, nil
	}
	ot := opPageIn.Start()
	defer func() { opPageIn.End(ot, size) }()
	fs := p.file.fs
	out := make([]byte, size)
	fs.mu.Lock()
	ci, err := fs.readInode(p.file.ino)
	if err != nil {
		fs.mu.Unlock()
		return nil, err
	}
	bns := make([]int64, size/BlockSize) // device block per file block; 0 = hole
	for i := range bns {
		if bns[i], err = fs.bmap(ci, offset/BlockSize+int64(i), nil); err != nil {
			fs.mu.Unlock()
			return nil, err
		}
	}
	fs.mu.Unlock()
	// Perform the disk I/O outside the metadata lock. This is what makes
	// clustered page-ins (Section 8 read-ahead) cheap.
	if err := extentIO(fs.dev, bns, out, readRun); err != nil {
		return nil, err
	}
	return out, nil
}

// extentIO moves one file extent between buf and the device: bns[i] is the
// device block of the extent's i-th file block (0 = a hole, skipped), and
// blocks consecutive on the device travel as one run — one positioning
// delay — through io (readRun or writeRun).
func extentIO(dev blockdev.Device, bns []int64, buf []byte, io func(blockdev.Device, int64, []byte) error) error {
	for i := 0; i < len(bns); {
		j := i + 1
		if bns[i] != 0 {
			for j < len(bns) && bns[j] == bns[j-1]+1 {
				j++
			}
			if err := io(dev, bns[i], buf[i*BlockSize:j*BlockSize]); err != nil {
				return err
			}
		}
		i = j
	}
	return nil
}

// PageInHint implements vm.HintedPager: return minSize plus however much
// speculative sequential data the stream detector currently trusts, capped
// at maxSize and the end of file rounded up.
func (p *diskPager) PageInHint(offset, minSize, maxSize vm.Offset, access vm.Rights) ([]byte, error) {
	length, err := p.file.GetLength()
	if err != nil {
		return nil, err
	}
	size := p.streamWindow(offset, minSize, maxSize, vm.RoundUp(length))
	return p.PageIn(offset, size, access)
}

// streamWindow runs the sequential-stream detector for one hinted fault
// and returns how many bytes to serve. end bounds the grant at EOF.
func (p *diskPager) streamWindow(offset, minSize, maxSize, end vm.Offset) vm.Offset {
	p.raMu.Lock()
	defer p.raMu.Unlock()
	if gen := p.file.truncGen.Load(); gen != p.raGen {
		// The file shrank since this window was built. The recorded stream
		// position and any speculation in flight describe ranges that may
		// no longer exist; forget them without touching the hit/wasted
		// counters — pages prefetched before a truncate are neither.
		p.raGen = gen
		p.raNext = -1
		p.raWindow = 0
		p.raPending = 0
	}
	if offset >= end {
		// Fault at or past EOF (a shrink raced the fault): serve the
		// minimum and speculate nothing — never issue page-ins for blocks
		// beyond the inode's current length.
		p.raNext = -1
		p.raWindow = 0
		p.raPending = 0
		return minSize
	}
	if offset == p.raNext {
		// The fault landed exactly where the last grant ended: the stream
		// is sequential and any speculative pages were consumed. Widen.
		raHits.Add(int64(p.raPending))
		p.raWindow *= 2
		if p.raWindow < raInitPages {
			p.raWindow = raInitPages
		}
		if p.raWindow > raMaxPages {
			p.raWindow = raMaxPages
		}
	} else {
		// Not sequential: last grant's speculation went unused. Start over
		// with no speculation — a random workload pays nothing extra.
		raWasted.Add(int64(p.raPending))
		p.raWindow = 0
	}
	size := minSize + vm.Offset(p.raWindow)*vm.PageSize
	if size > maxSize {
		size = maxSize
	}
	if offset+size > end {
		size = end - offset
	}
	if size < minSize {
		size = minSize
	}
	p.raPending = int((size - minSize) / vm.PageSize)
	if p.raPending < 0 {
		p.raPending = 0
	}
	p.raNext = offset + size
	return size
}

// PageOut implements vm.PagerObject. The data may span many pages (the
// VMM's clustered write-back): block lookups happen under the metadata
// lock, then the device writes run outside it, coalescing blocks that are
// consecutive on the device into single transfers — the write mirror of
// PageIn's clustered reads.
//
// Data is ordered before metadata and never journaled. Where the extent
// covers holes, their blocks are reserved in one go — blocks free in every
// committed state, so overwriting them can hurt nothing — the data is
// written first, and only then does one transaction commit the bitmap, the
// pointer blocks and the inode that make the blocks reachable. The commit
// barrier covers the data, so once an fsync's page-outs and inode
// transaction have returned the file survives a power cut; a crash before
// the commit leaves the old file intact. The inode's mtime advances only
// after every write has succeeded, so a failed device write does not stamp
// modification metadata for data that never reached the disk.
func (p *diskPager) PageOut(offset, size vm.Offset, data []byte) (err error) {
	if !vm.PageAligned(offset, size) {
		return vm.ErrUnaligned
	}
	if int64(len(data)) < size {
		return fmt.Errorf("disklayer: short page-out data: %d < %d", len(data), size)
	}
	ot := opPageOut.Start()
	defer func() { opPageOut.End(ot, size) }()
	fs := p.file.fs
	first := offset / BlockSize
	bns := make([]int64, size/BlockSize) // device block per file block
	var fresh []int                      // indexes of the bns reserved here

	fs.mu.Lock()
	ci, err := fs.readInode(p.file.ino)
	if err == nil && ci.in.mode != ModeFile {
		// The file was unlinked and reclaimed while a cache above still held
		// dirty pages; its data is discardable, and allocating blocks into a
		// freed (or since-reused) inode would corrupt the file system.
		fs.mu.Unlock()
		return nil
	}
	for i := 0; err == nil && i < len(bns); i++ {
		if bns[i], err = fs.bmap(ci, first+int64(i), nil); err == nil && bns[i] == 0 {
			if bns[i], err = fs.reserveBlock(ci); err == nil {
				fresh = append(fresh, i)
			}
		}
	}
	fs.mu.Unlock()
	wrote := err == nil
	if wrote {
		err = extentIO(fs.dev, bns, data, writeRun)
	}

	fs.mu.Lock()
	defer fs.mu.Unlock()
	// A reservation still standing on the way out was never committed (a
	// failure, or another pager filled the hole first): the all-or-nothing
	// release, scrubbed if data may have been written into the blocks.
	defer func() {
		var left []int64
		for _, i := range fresh {
			if bns[i] != 0 {
				left = append(left, bns[i])
			}
		}
		if wrote {
			_ = zeroBlocks(fs.dev, left) // best effort: the blocks are free either way
		}
		for _, bn := range left {
			fs.alloc.release(bn)
		}
	}()
	if err != nil {
		return err
	}
	if ci, err = fs.readInode(p.file.ino); err != nil || ci.in.mode != ModeFile {
		return err
	}
	if len(fresh) == 0 {
		ci.in.mtime = fs.now()
		ci.dirty = true
		return nil
	}
	// The inode rides along (length and mtime with the blocks they
	// describe), so it is clean when the commit returns and an fsync has no
	// transaction of its own left to run. A wide extent's pointer blocks can
	// outgrow a small journal, so the transaction splits at self-consistent
	// points: every block it has installed so far already holds its data.
	return fs.withTxn(func() error {
		ci.in.mtime = fs.now()
		fs.txnRegister(ci)
		for _, i := range fresh {
			bn := bns[i]
			if _, err := fs.bmap(ci, first+int64(i), func() (int64, error) {
				bns[i] = 0 // committed: no longer a reservation to release
				return bn, fs.alloc.commit(bn)
			}); err != nil {
				return err
			}
			if err := fs.txnMaybeSplit(ci); err != nil {
				return err
			}
		}
		return nil
	})
}

// WriteOut implements vm.PagerObject.
func (p *diskPager) WriteOut(offset, size vm.Offset, data []byte) error {
	return p.PageOut(offset, size, data)
}

// Sync implements vm.PagerObject.
func (p *diskPager) Sync(offset, size vm.Offset, data []byte) error {
	return p.PageOut(offset, size, data)
}

// DoneWithPagerObject implements vm.PagerObject.
func (p *diskPager) DoneWithPagerObject() {}

// GetAttributes implements fsys.FsPagerObject; served from the i-node
// cache.
func (p *diskPager) GetAttributes() (fsys.Attributes, error) {
	return p.file.Stat()
}

// SetAttributes implements fsys.FsPagerObject.
func (p *diskPager) SetAttributes(attrs fsys.Attributes) error {
	if cur, err := p.file.GetLength(); err == nil && attrs.Length < cur {
		if err := p.file.zeroTail(attrs.Length); err != nil {
			return err
		}
	}
	fs := p.file.fs
	shrunk := false
	defer func() {
		if shrunk {
			fs.purgeCachedPages(p.file.ino, vm.RoundUp(attrs.Length))
		}
	}()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ci, err := fs.readInode(p.file.ino)
	if err != nil {
		return err
	}
	if ci.in.mode != ModeFile {
		return nil
	}
	if attrs.Length < ci.in.length {
		if err := fs.withTxn(func() error {
			return fs.truncateLocked(ci, attrs.Length)
		}); err != nil {
			return err
		}
		shrunk = true
		p.file.truncGen.Add(1)
	} else {
		ci.in.length = attrs.Length
	}
	ci.in.atime = attrs.AccessTime.UnixNano()
	ci.in.mtime = attrs.ModifyTime.UnixNano()
	ci.dirty = true
	return nil
}
