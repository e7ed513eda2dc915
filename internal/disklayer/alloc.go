package disklayer

import (
	"fmt"

	"springfs/internal/blockdev"
	"springfs/internal/stats"
)

// Contiguity stats: how many data-block allocations landed exactly where
// the caller's placement hint asked (previous block + 1). The ratio
// contig/total is the layout quality the blockdev seek model rewards — the
// benchmark reports it as disklayer.alloc_contig_share.
var (
	allocTotal  = stats.Default.Counter("disk.alloc.blocks")
	allocContig = stats.Default.Counter("disk.alloc.contig")
)

// allocGroupBlocks is the allocation-group size (FFS cylinder-group
// lineage): the data region is carved into groups of this many blocks, and
// placement keeps a file's blocks inside one group until it fills, so
// unrelated files don't interleave block-by-block.
const allocGroupBlocks = 2048 // 8 MiB per group

// allocator manages the block allocation bitmap. The bitmap is kept in
// memory and written through on every change; the write lands in the
// current metadata transaction (via the write hook), so a crash either
// applies the whole mutation or none of it.
//
// Beside the bitmap sits the held set: blocks that are free in the bitmap —
// and so in every committed state — but must not be handed out. A block is
// held while an allocating page-out has reserved it and is writing its data
// (reserve; commit then sets the bitmap bit inside the transaction that
// references the block), and while it sits in quarantine after a free (see
// the reuse rule in journal.go). release ends either hold.
//
// Placement is extent-aware: reserve takes a hint (the block the caller
// wants to extend — typically the file's previous block + 1) and tries, in
// order, the hinted block itself, a next-fit scan within the hint's
// allocation group, the emptiest group, and finally a full device scan.
//
// The allocator is not internally locked; DiskFS serialises metadata
// mutations under its own mutex.
type allocator struct {
	dev    blockdev.Device
	sb     *superblock
	bitmap []byte // sb.bitmapBlocks * BlockSize bytes
	held   []byte // same shape: free in the bitmap but not allocatable
	nheld  int64
	// write sinks bitmap block writes; DiskFS points it at metaWrite so
	// they join the open transaction. Nil means write the device directly.
	write func(bn int64, buf []byte) error
	// groupFree tracks allocatable (free and not held) blocks per
	// allocation group so picking the emptiest group is O(groups), not a
	// bitmap walk.
	groupFree []int64
	// hint is the fallback rotor for hintless allocations.
	hint int64
}

func loadAllocator(dev blockdev.Device, sb *superblock) (*allocator, error) {
	a := &allocator{
		dev:    dev,
		sb:     sb,
		bitmap: make([]byte, sb.bitmapBlocks*BlockSize),
		held:   make([]byte, sb.bitmapBlocks*BlockSize),
		hint:   sb.dataStart,
	}
	if err := readRun(dev, sb.bitmapStart, a.bitmap); err != nil {
		return nil, fmt.Errorf("disklayer: reading bitmap: %w", err)
	}
	ngroups := (sb.nblocks - sb.dataStart + allocGroupBlocks - 1) / allocGroupBlocks
	if ngroups < 1 {
		ngroups = 1
	}
	a.groupFree = make([]int64, ngroups)
	for bn := sb.dataStart; bn < sb.nblocks; bn++ {
		if !a.isSet(bn) {
			a.groupFree[a.group(bn)]++
		}
	}
	return a, nil
}

// group maps a data block to its allocation group index.
func (a *allocator) group(bn int64) int64 {
	g := (bn - a.sb.dataStart) / allocGroupBlocks
	if g < 0 {
		g = 0
	}
	if g >= int64(len(a.groupFree)) {
		g = int64(len(a.groupFree)) - 1
	}
	return g
}

// groupRange returns group g's data-block range [lo, hi).
func (a *allocator) groupRange(g int64) (int64, int64) {
	lo := a.sb.dataStart + g*allocGroupBlocks
	hi := lo + allocGroupBlocks
	if hi > a.sb.nblocks {
		hi = a.sb.nblocks
	}
	return lo, hi
}

func (a *allocator) isSet(bn int64) bool  { return a.bitmap[bn/8]&(1<<(bn%8)) != 0 }
func (a *allocator) isHeld(bn int64) bool { return a.held[bn/8]&(1<<(bn%8)) != 0 }

// usable reports whether bn can be handed out: free and not held.
func (a *allocator) usable(bn int64) bool {
	return (a.bitmap[bn/8]|a.held[bn/8])&(1<<(bn%8)) == 0
}

// writeBitmapBlock flushes the bitmap block containing bit bn.
func (a *allocator) writeBitmapBlock(bn int64) error {
	blk := bn / (BlockSize * 8)
	buf := a.bitmap[blk*BlockSize : (blk+1)*BlockSize]
	if a.write != nil {
		return a.write(a.sb.bitmapStart+blk, buf)
	}
	return a.dev.WriteBlock(a.sb.bitmapStart+blk, buf)
}

// hold takes a usable block out of circulation without touching the
// bitmap.
func (a *allocator) hold(bn int64) int64 {
	a.held[bn/8] |= 1 << (bn % 8)
	a.nheld++
	a.groupFree[a.group(bn)]--
	return bn
}

// release ends a hold (a reservation abandoned, or a quarantine served):
// the block is allocatable again. Releasing a block that is not held is a
// no-op, so a hold lost to a cache reload is harmless.
func (a *allocator) release(bn int64) {
	if a.isHeld(bn) {
		a.held[bn/8] &^= 1 << (bn % 8)
		a.nheld--
		a.groupFree[a.group(bn)]++
	}
}

// commit turns a reservation into an allocation: bitmap bit, free count,
// write-through. It runs inside the transaction that makes the block
// reachable.
func (a *allocator) commit(bn int64) error {
	a.held[bn/8] &^= 1 << (bn % 8)
	a.nheld--
	a.bitmap[bn/8] |= 1 << (bn % 8)
	a.sb.freeBlocks--
	if err := a.writeBitmapBlock(bn); err != nil {
		a.bitmap[bn/8] &^= 1 << (bn % 8)
		a.sb.freeBlocks++
		a.groupFree[a.group(bn)]++
		return err
	}
	return nil
}

// scan returns the first usable block in [lo, hi), or -1.
func (a *allocator) scan(lo, hi int64) int64 {
	for bn := lo; bn < hi; bn++ {
		if a.usable(bn) {
			return bn
		}
	}
	return -1
}

// reserve picks a usable data block and holds it. Its on-disk content is
// arbitrary until the caller overwrites it: the caller writes the whole
// block (file data, before commit) or journals a whole image of it
// (metadata). Blocks are zeroed as they leave quarantine, so a free block
// normally reads as zeros — TestFreedBlocksAreZeroedOnDisk is the
// regression test — but nothing depends on it.
//
// near is the placement hint: the block the caller would like, usually the
// previous block of the same file plus one, so sequential writes lay out
// contiguously and streaming reads coalesce into runs. near <= 0 means no
// preference.
func (a *allocator) reserve(near int64) (int64, error) {
	if a.sb.freeBlocks-a.nheld <= 0 {
		return 0, ErrNoSpace
	}
	allocTotal.Inc()
	bn := a.place(near)
	if bn < 0 {
		return 0, ErrNoSpace
	}
	a.hint = bn + 1
	if a.hint >= a.sb.nblocks {
		a.hint = a.sb.dataStart
	}
	return a.hold(bn), nil
}

// place applies the placement policy and returns a usable block, or -1.
func (a *allocator) place(near int64) int64 {
	hinted := near >= a.sb.dataStart && near < a.sb.nblocks
	// 1. The hinted block itself: a contiguous extension.
	if hinted && a.usable(near) {
		allocContig.Inc()
		return near
	}
	// 2. Next-fit within the hint's group: stay near the file.
	if hinted {
		_, hi := a.groupRange(a.group(near))
		if bn := a.scan(near+1, hi); bn >= 0 {
			return bn
		}
	}
	// 3. The emptiest group (hintless allocations start from the fallback
	// rotor's group so metadata-heavy churn doesn't always pile into group
	// 0).
	best := int64(-1)
	if !hinted {
		best = a.group(a.hint)
		if a.groupFree[best] == 0 {
			best = -1
		}
	}
	if best < 0 {
		for g := range a.groupFree {
			if a.groupFree[g] > 0 && (best < 0 || a.groupFree[g] > a.groupFree[best]) {
				best = int64(g)
			}
		}
	}
	if best >= 0 {
		lo, hi := a.groupRange(best)
		if !hinted && a.hint > lo && a.hint < hi {
			// Next-fit from the rotor inside its group.
			if bn := a.scan(a.hint, hi); bn >= 0 {
				return bn
			}
		}
		if bn := a.scan(lo, hi); bn >= 0 {
			return bn
		}
	}
	// 4. Full scan — only reachable if groupFree is somehow stale.
	return a.scan(a.sb.dataStart, a.sb.nblocks)
}

// free releases block bn in the bitmap and holds it in quarantine; the
// caller (DiskFS.freeBlock) records it in the freeing transaction.
func (a *allocator) free(bn int64) error {
	if bn < a.sb.dataStart || bn >= a.sb.nblocks {
		return fmt.Errorf("disklayer: freeing out-of-range block %d", bn)
	}
	if !a.isSet(bn) {
		return fmt.Errorf("disklayer: double free of block %d", bn)
	}
	a.bitmap[bn/8] &^= 1 << (bn % 8)
	a.sb.freeBlocks++
	a.held[bn/8] |= 1 << (bn % 8) // straight into quarantine: not yet allocatable
	a.nheld++
	return a.writeBitmapBlock(bn)
}

// countFree recounts free blocks from the bitmap (fsck-style consistency
// check used by tests).
func (a *allocator) countFree() int64 {
	var free int64
	for bn := a.sb.dataStart; bn < a.sb.nblocks; bn++ {
		if !a.isSet(bn) {
			free++
		}
	}
	return free
}
