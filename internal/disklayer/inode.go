package disklayer

import (
	"encoding/binary"
	"errors"
	"fmt"

	"springfs/internal/fsys"
)

// cachedInode is an entry in the disk layer's i-node cache. The cache is
// the small, wired-down state the paper attributes to the disk layer: it
// lets open and stat operations complete without disk I/O.
type cachedInode struct {
	ino   uint64
	in    inode
	dirty bool
	// lastBn is the most recently mapped or allocated device block of this
	// file — the allocator's placement hint, so sequential writes extend
	// the file contiguously (in-memory only; rebuilt as the file is
	// touched after a remount).
	lastBn int64
}

// itableCacheBlocks bounds the inode-table block cache (2048 inodes).
const itableCacheBlocks = 64

// itableBlock returns the image of inode-table block blk from the
// write-through table cache, reading it (through the journal overlay) on a
// miss. The image is the current one: every table write goes through
// metaWrite, which keeps cached images in step — so at the bound any entry
// can be evicted. Caller holds fs.mu.
func (fs *DiskFS) itableBlock(blk int64) ([]byte, error) {
	if img, ok := fs.itable[blk]; ok {
		return img, nil
	}
	img := make([]byte, BlockSize)
	if err := fs.metaRead(blk, img); err != nil {
		return nil, err
	}
	if len(fs.itable) >= itableCacheBlocks {
		for victim := range fs.itable {
			delete(fs.itable, victim)
			break
		}
	}
	fs.itable[blk] = img
	return img, nil
}

// readInode returns the cached inode for ino, loading it from the inode
// table if needed. Caller holds fs.mu.
func (fs *DiskFS) readInode(ino uint64) (*cachedInode, error) {
	if ino == 0 || ino > uint64(fs.sb.ninodes) {
		return nil, fmt.Errorf("%w: %d", ErrBadInode, ino)
	}
	if ci, ok := fs.icache[ino]; ok {
		return ci, nil
	}
	img, err := fs.itableBlock(fs.sb.itableStart + int64(ino)/InodesPerBlock)
	if err != nil {
		return nil, err
	}
	ci := &cachedInode{ino: ino}
	ci.in.decode(img[(int64(ino)%InodesPerBlock)*InodeSize:])
	fs.icache[ino] = ci
	return ci, nil
}

// writeInode flushes a cached inode to the inode table through the open
// transaction: the inode is encoded into the cached image of its table
// block and the whole block staged, so two inodes updated in one
// transaction do not clobber each other and no write re-reads the block it
// is about to write. Caller holds fs.mu.
func (fs *DiskFS) writeInode(ci *cachedInode) error {
	blk := fs.sb.itableStart + int64(ci.ino)/InodesPerBlock
	img, err := fs.itableBlock(blk)
	if err != nil {
		return err
	}
	ci.in.encode(img[(int64(ci.ino)%InodesPerBlock)*InodeSize:])
	if err := fs.metaWrite(blk, img); err != nil {
		delete(fs.itable, blk)
		return err
	}
	ci.dirty = false
	return nil
}

// allocInode allocates a fresh inode with the given mode, scanning the
// table by the block (an inode's mode is written through on every
// allocation and release, so the table images are authoritative for it).
// Caller holds fs.mu.
func (fs *DiskFS) allocInode(mode uint32) (*cachedInode, error) {
	if fs.sb.freeInodes == 0 {
		return nil, ErrNoInodes
	}
	var img []byte
	for ino := uint64(1); int64(ino) <= fs.sb.ninodes; ino++ {
		if img == nil || ino%InodesPerBlock == 0 {
			var err error
			if img, err = fs.itableBlock(fs.sb.itableStart + int64(ino)/InodesPerBlock); err != nil {
				return nil, err
			}
		}
		if binary.BigEndian.Uint32(img[(ino%InodesPerBlock)*InodeSize:]) != ModeFree {
			continue
		}
		ci, err := fs.readInode(ino)
		if err != nil {
			return nil, err
		}
		ci.in = inode{mode: mode, nlink: 1, atime: fs.now(), mtime: fs.now()}
		ci.dirty = true
		fs.sb.freeInodes--
		if err := fs.writeInode(ci); err != nil {
			return nil, err
		}
		return ci, nil
	}
	return nil, ErrNoInodes
}

// freeInode releases ino and all of its data blocks. Caller holds fs.mu.
func (fs *DiskFS) freeInode(ino uint64) error {
	ci, err := fs.readInode(ino)
	if err != nil {
		return err
	}
	if err := fs.truncateLocked(ci, 0); err != nil {
		return err
	}
	ci.in = inode{mode: ModeFree}
	ci.dirty = true
	fs.sb.freeInodes++
	if err := fs.writeInode(ci); err != nil {
		return err
	}
	delete(fs.icache, ino)
	return nil
}

// readPtrBlock reads an indirect block as big-endian pointers. Indirect
// blocks are cached in memory alongside the i-node cache (the disk
// layer's small wired-down state): block mapping must not cost a disk I/O
// per page, or metadata reads would dominate every data access.
func (fs *DiskFS) readPtrBlock(bn int64) ([]int64, error) {
	if ptrs, ok := fs.mcache[bn]; ok {
		return ptrs, nil
	}
	buf := getBlockBuf()
	defer putBlockBuf(buf)
	if err := fs.metaRead(bn, buf); err != nil {
		return nil, err
	}
	ptrs := make([]int64, PtrsPerBlock)
	for i := range ptrs {
		ptrs[i] = int64(binary.BigEndian.Uint64(buf[8*i:]))
	}
	fs.mcache[bn] = ptrs
	return ptrs, nil
}

// writePtrBlock writes an indirect block (write-through: the cache and the
// device stay in step).
func (fs *DiskFS) writePtrBlock(bn int64, ptrs []int64) error {
	buf := getBlockBuf()
	defer putBlockBuf(buf)
	for i, p := range ptrs {
		binary.BigEndian.PutUint64(buf[8*i:], uint64(p))
	}
	if err := fs.metaWrite(bn, buf); err != nil {
		delete(fs.mcache, bn)
		return err
	}
	fs.mcache[bn] = ptrs
	return nil
}

// bmap maps file block fbn of inode ci to a device block. With leaf set,
// a missing block is filled in: leaf supplies the block for fbn itself (a
// page-out's reserved data block, or a freshly allocated directory block),
// and missing indirect blocks on the way are allocated. A return of 0 with
// leaf nil means a hole (reads as zeros). Caller holds fs.mu.
func (fs *DiskFS) bmap(ci *cachedInode, fbn int64, leaf func() (int64, error)) (int64, error) {
	if fbn < 0 || fbn >= MaxFileBlocks {
		return 0, fsys.ErrFileTooBig
	}
	// fill points *slot at a new block from alloc if it is empty.
	fill := func(slot *int64, alloc func() (int64, error)) error {
		if *slot != 0 || leaf == nil {
			return nil
		}
		bn, err := alloc()
		if err == nil {
			*slot = bn
		}
		return err
	}
	// inodeSlot fills one of the inode's own pointers; the inode must then
	// commit with the bitmap and pointer blocks it references.
	inodeSlot := func(slot *int64, alloc func() (int64, error)) error {
		was := *slot
		if err := fill(slot, alloc); err != nil {
			return err
		}
		if *slot != was {
			ci.dirty = true
			fs.txnRegister(ci)
		}
		return nil
	}
	// ptrSlot fills entry i of the indirect block at bn and returns it.
	ptrSlot := func(bn, i int64, alloc func() (int64, error)) (int64, error) {
		ptrs, err := fs.readPtrBlock(bn)
		if err != nil {
			return 0, err
		}
		was := ptrs[i]
		if err := fill(&ptrs[i], alloc); err != nil {
			return 0, err
		}
		if ptrs[i] != was {
			if err := fs.writePtrBlock(bn, ptrs); err != nil {
				return 0, err
			}
		}
		return ptrs[i], nil
	}
	meta := func() (int64, error) { return fs.allocZeroed(ci) }

	var bn int64
	var err error
	switch {
	case fbn < NumDirect:
		err = inodeSlot(&ci.in.direct[fbn], leaf)
		bn = ci.in.direct[fbn]
	case fbn < NumDirect+PtrsPerBlock:
		if err = inodeSlot(&ci.in.indirect, meta); err == nil && ci.in.indirect != 0 {
			bn, err = ptrSlot(ci.in.indirect, fbn-NumDirect, leaf)
		}
	default:
		rel := fbn - NumDirect - PtrsPerBlock
		var inner int64
		if err = inodeSlot(&ci.in.dindirect, meta); err == nil && ci.in.dindirect != 0 {
			inner, err = ptrSlot(ci.in.dindirect, rel/PtrsPerBlock, meta)
		}
		if err == nil && inner != 0 {
			bn, err = ptrSlot(inner, rel%PtrsPerBlock, leaf)
		}
	}
	if err != nil {
		return 0, err
	}
	if bn != 0 {
		ci.lastBn = bn // warm the placement hint from existing layout
	}
	return bn, nil
}

// reserveBlock reserves a block near ci's previous one (when the hint is
// warm). An allocator that finds only quarantined blocks forces a
// checkpoint — which puts their freeing batches behind the watermark — and
// retries before it may report ErrNoSpace. Caller holds fs.mu.
func (fs *DiskFS) reserveBlock(ci *cachedInode) (int64, error) {
	var near int64
	if ci.lastBn > 0 {
		near = ci.lastBn + 1
	}
	bn, err := fs.alloc.reserve(near)
	if errors.Is(err, ErrNoSpace) && fs.alloc.nheld > 0 {
		if err := fs.jnl.checkpointAll(); err != nil {
			return 0, err
		}
		if err := fs.reclaim(); err != nil {
			return 0, err
		}
		bn, err = fs.alloc.reserve(near)
	}
	if err != nil {
		return 0, err
	}
	ci.lastBn = bn
	delete(fs.mcache, bn) // a stale pointer-block entry from the block's earlier life
	return bn, nil
}

// allocZeroed allocates a metadata block (an indirect block or a directory
// block) inside the open transaction and stages a zero image of it: the
// block's content travels whole through the journal, so it is well defined
// from its first commit whatever the block held before. File data blocks
// do not come this way (diskPager.PageOut).
func (fs *DiskFS) allocZeroed(ci *cachedInode) (int64, error) {
	bn, err := fs.reserveBlock(ci)
	if err != nil {
		return 0, err
	}
	if err := fs.alloc.commit(bn); err != nil {
		return 0, err
	}
	if err := fs.metaWrite(bn, zeroBlock[:]); err != nil {
		_ = fs.alloc.free(bn) // cannot fail: bn was allocated two lines up
		fs.alloc.release(bn)
		return 0, err
	}
	return bn, nil
}

// truncateLocked shrinks (or extends) the file to length bytes, freeing
// whole blocks past the new end. A large truncate can free more blocks
// than one journal transaction holds, so it splits the transaction at
// self-consistent points (a file with cleared pointers and freed blocks is
// a legal intermediate state — the tail is just a hole). Caller holds
// fs.mu.
func (fs *DiskFS) truncateLocked(ci *cachedInode, length int64) error {
	fs.txnRegister(ci)
	oldBlocks := (ci.in.length + BlockSize - 1) / BlockSize
	newBlocks := (length + BlockSize - 1) / BlockSize
	for fbn := newBlocks; fbn < oldBlocks; fbn++ {
		bn, err := fs.bmap(ci, fbn, nil)
		if err != nil {
			return err
		}
		if bn != 0 {
			if err := fs.clearPtr(ci, fbn); err != nil {
				return err
			}
			if err := fs.freeBlock(bn); err != nil {
				return err
			}
			if err := fs.txnMaybeSplit(ci); err != nil {
				return err
			}
		}
	}
	// Free now-unused indirect structures when truncating to zero.
	if newBlocks == 0 {
		if ci.in.indirect != 0 {
			delete(fs.mcache, ci.in.indirect)
			if err := fs.freeBlock(ci.in.indirect); err != nil {
				return err
			}
			ci.in.indirect = 0
		}
		if ci.in.dindirect != 0 {
			// Freeing the pointer-block structure only touches bitmap
			// blocks (deduplicated per transaction) plus the registered
			// inode, so it fits one transaction without splitting.
			outer, err := fs.readPtrBlock(ci.in.dindirect)
			if err != nil {
				return err
			}
			for _, bn := range outer {
				if bn != 0 {
					delete(fs.mcache, bn)
					if err := fs.freeBlock(bn); err != nil {
						return err
					}
				}
			}
			delete(fs.mcache, ci.in.dindirect)
			if err := fs.freeBlock(ci.in.dindirect); err != nil {
				return err
			}
			ci.in.dindirect = 0
		}
	}
	ci.in.length = length
	ci.in.mtime = fs.now()
	ci.dirty = true
	return nil
}

// clearPtr zeroes the pointer to file block fbn. Caller holds fs.mu.
func (fs *DiskFS) clearPtr(ci *cachedInode, fbn int64) error {
	if fbn < NumDirect {
		ci.in.direct[fbn] = 0
		ci.dirty = true
		return nil
	}
	fbn -= NumDirect
	if fbn < PtrsPerBlock {
		ptrs, err := fs.readPtrBlock(ci.in.indirect)
		if err != nil {
			return err
		}
		ptrs[fbn] = 0
		return fs.writePtrBlock(ci.in.indirect, ptrs)
	}
	fbn -= PtrsPerBlock
	outer, err := fs.readPtrBlock(ci.in.dindirect)
	if err != nil {
		return err
	}
	inner, err := fs.readPtrBlock(outer[fbn/PtrsPerBlock])
	if err != nil {
		return err
	}
	inner[fbn%PtrsPerBlock] = 0
	return fs.writePtrBlock(outer[fbn/PtrsPerBlock], inner)
}
