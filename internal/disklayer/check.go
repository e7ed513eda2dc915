package disklayer

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"springfs/internal/blockdev"
)

// Check is the disk layer's fsck: a full structural audit of an image,
// run after journal replay. It walks superblock → inode table → directory
// tree → allocation bitmap and cross-checks them:
//
//   - every block referenced by an inode (data, indirect, double-indirect)
//     must be inside the data region, marked allocated, and referenced
//     exactly once;
//   - every allocated bitmap bit must be referenced by some inode
//     (otherwise the block is leaked);
//   - every directory entry must name an allocated inode, and every
//     allocated inode must be reachable from the root (otherwise it is
//     dangling);
//   - every inode's link count must equal the number of directory entries
//     referencing it (plus one implicit link for the root);
//   - the superblock's free-block and free-inode counters must match the
//     bitmap and the inode table.
//
// With repair set, Check fixes what it finds — leaked blocks are freed and
// zeroed (the allocator's convention), unreachable inodes are released,
// missing bitmap bits are set, dangling entries are cut out of their
// directory, link counts and superblock counters are rewritten — and the
// journal slot is erased so a stale transaction cannot replay over the
// repaired image. Repair iterates until the image is clean (freeing a
// dangling inode, for example, turns its blocks into leaks for the next
// pass).

// Problem classes reported by Check.
const (
	ProblemLeakedBlock    = "leaked-block"    // allocated in the bitmap, referenced by nothing
	ProblemUnallocatedRef = "unallocated-ref" // referenced by an inode, free in the bitmap
	ProblemMultiRef       = "multi-ref"       // block referenced more than once
	ProblemBadPointer     = "bad-pointer"     // block pointer outside the data region
	ProblemDanglingEntry  = "dangling-entry"  // directory entry to a free or bad inode
	ProblemDanglingInode  = "dangling-inode"  // allocated inode unreachable from the root
	ProblemOrphanInode    = "orphan-inode"    // unlink-while-open orphan (nlink 0) left by a crash
	ProblemBadRefcount    = "bad-refcount"    // nlink disagrees with directory references
	ProblemBadDir         = "bad-dir"         // directory data does not decode
	ProblemBadCounts      = "bad-counts"      // superblock free counters disagree
)

// Problem is one inconsistency found by Check.
type Problem struct {
	Class    string
	Detail   string
	Repaired bool
}

func (p Problem) String() string {
	status := ""
	if p.Repaired {
		status = " [repaired]"
	}
	return fmt.Sprintf("%s: %s%s", p.Class, p.Detail, status)
}

// CheckReport is the outcome of a Check pass.
type CheckReport struct {
	// Replayed reports whether a committed journal transaction was
	// re-applied before checking.
	Replayed bool
	// Problems lists every inconsistency found (first scan plus any
	// surfaced while repairing).
	Problems []Problem
	// Clean reports whether the image is consistent now: either nothing
	// was found, or repair fixed everything it found.
	Clean bool
}

func (r *CheckReport) String() string {
	var b strings.Builder
	if r.Replayed {
		fmt.Fprintf(&b, "journal: replayed a committed transaction\n")
	}
	for _, p := range r.Problems {
		fmt.Fprintf(&b, "%s\n", p)
	}
	if r.Clean {
		if len(r.Problems) == 0 {
			fmt.Fprintf(&b, "clean: no inconsistencies\n")
		} else {
			fmt.Fprintf(&b, "clean after repair: %d problem(s) fixed\n", len(r.Problems))
		}
	} else {
		fmt.Fprintf(&b, "NOT CLEAN: %d problem(s)\n", len(r.Problems))
	}
	return b.String()
}

// maxRepairPasses bounds the repair iteration; each class of cascading
// repair (free inode → leaked blocks → clear bitmap) converges in two.
const maxRepairPasses = 6

// Check audits the file system image on dev, repairing it when repair is
// set. The device must be quiescent (unmounted, or mounted with all caches
// flushed and mutations blocked).
func Check(dev blockdev.Device, repair bool) (*CheckReport, error) {
	report := &CheckReport{}
	replayed, err := replayJournal(dev)
	if err != nil {
		return nil, err
	}
	report.Replayed = replayed
	for pass := 0; ; pass++ {
		st, err := scan(dev)
		if err != nil {
			return nil, err
		}
		if pass == 0 || len(st.problems) > 0 {
			report.Problems = append(report.Problems, st.problems...)
		}
		if len(st.problems) == 0 {
			report.Clean = true
			break
		}
		if !repair || pass >= maxRepairPasses {
			break
		}
		if err := st.repair(); err != nil {
			return nil, err
		}
	}
	if repair && report.Clean && len(report.Problems) > 0 {
		// Repairs rewrote home locations directly; a stale journal
		// transaction replaying over them could resurrect the
		// inconsistency.
		if err := eraseJournal(dev); err != nil {
			return nil, err
		}
		for i := range report.Problems {
			report.Problems[i].Repaired = true
		}
	}
	return report, nil
}

// checkState is one scan of the image: decoded metadata plus the problems
// and the repair actions derived from them.
type checkState struct {
	dev    blockdev.Device
	sb     superblock
	bitmap []byte
	inodes []inode // 1-based; index 0 unused

	problems []Problem

	// Repair worklists, filled during the scan.
	freeInos     []uint64          // unreachable inodes to release
	setBits      []int64           // referenced-but-free blocks to mark allocated
	clearBits    []int64           // leaked blocks to free and zero
	fixNlink     map[uint64]uint32 // ino -> observed link count
	cutEntries   map[uint64][]int  // dir ino -> entry indexes to drop
	truncateDirs []uint64          // dirs whose data does not decode: reset to empty
	dirData      map[uint64][]byte // raw dir data as scanned
	dirEntries   map[uint64][]dirEntry
	fixCounts    bool
}

func (st *checkState) problem(class, format string, args ...interface{}) {
	st.problems = append(st.problems, Problem{Class: class, Detail: fmt.Sprintf(format, args...)})
}

// scan reads the whole image and cross-checks it, recording problems and
// the repairs that would fix them.
func scan(dev blockdev.Device) (*checkState, error) {
	st := &checkState{
		dev:        dev,
		fixNlink:   make(map[uint64]uint32),
		cutEntries: make(map[uint64][]int),
		dirData:    make(map[uint64][]byte),
		dirEntries: make(map[uint64][]dirEntry),
	}
	buf := make([]byte, BlockSize)
	if err := dev.ReadBlock(0, buf); err != nil {
		return nil, err
	}
	if err := st.sb.decode(buf); err != nil {
		return nil, fmt.Errorf("disklayer: fsck: superblock: %w", err)
	}
	if err := st.sb.validate(dev.NumBlocks()); err != nil {
		return nil, fmt.Errorf("disklayer: fsck: %w", err)
	}
	// The bitmap and the inode table are read by the run, like Mount does.
	st.bitmap = make([]byte, st.sb.bitmapBlocks*BlockSize)
	if err := readRun(dev, st.sb.bitmapStart, st.bitmap); err != nil {
		return nil, err
	}
	table := make([]byte, st.sb.itableBlocks*BlockSize)
	if err := readRun(dev, st.sb.itableStart, table); err != nil {
		return nil, err
	}
	st.inodes = make([]inode, st.sb.ninodes+1)
	for ino := int64(1); ino <= st.sb.ninodes; ino++ {
		st.inodes[ino].decode(table[ino*InodeSize:])
	}

	refs := make(map[int64]uint64) // block -> first referencing inode
	ref := func(ino uint64, bn int64, what string) bool {
		if bn == 0 {
			return false
		}
		if bn < st.sb.dataStart || bn >= st.sb.nblocks {
			st.problem(ProblemBadPointer, "inode %d: %s pointer %d outside data region [%d,%d)",
				ino, what, bn, st.sb.dataStart, st.sb.nblocks)
			return false
		}
		if prev, dup := refs[bn]; dup {
			st.problem(ProblemMultiRef, "block %d referenced by inode %d and inode %d", bn, prev, ino)
			return false
		}
		refs[bn] = ino
		if !bitmapIsSet(st.bitmap, bn) {
			st.problem(ProblemUnallocatedRef, "block %d referenced by inode %d but free in the bitmap", bn, ino)
			st.setBits = append(st.setBits, bn)
		}
		return true
	}
	readPtrs := func(bn int64) ([]int64, error) {
		if err := dev.ReadBlock(bn, buf); err != nil {
			return nil, err
		}
		ptrs := make([]int64, PtrsPerBlock)
		for i := range ptrs {
			ptrs[i] = int64(binary.BigEndian.Uint64(buf[8*i:]))
		}
		return ptrs, nil
	}

	// Pass 1: every allocated inode's block references.
	for ino := uint64(1); int64(ino) <= st.sb.ninodes; ino++ {
		in := &st.inodes[ino]
		if in.mode == ModeFree {
			continue
		}
		for i, bn := range in.direct {
			ref(ino, bn, fmt.Sprintf("direct[%d]", i))
		}
		if ref(ino, in.indirect, "indirect") {
			ptrs, err := readPtrs(in.indirect)
			if err != nil {
				return nil, err
			}
			for _, bn := range ptrs {
				ref(ino, bn, "indirect entry")
			}
		}
		if ref(ino, in.dindirect, "double-indirect") {
			outer, err := readPtrs(in.dindirect)
			if err != nil {
				return nil, err
			}
			for _, obn := range outer {
				if ref(ino, obn, "double-indirect outer") {
					inner, err := readPtrs(obn)
					if err != nil {
						return nil, err
					}
					for _, bn := range inner {
						ref(ino, bn, "double-indirect entry")
					}
				}
			}
		}
	}

	// Pass 2: walk the directory tree from the root, counting links.
	links := make(map[uint64]uint32)
	links[RootIno]++ // the root's implicit link
	visited := make(map[uint64]bool)
	queue := []uint64{RootIno}
	for len(queue) > 0 {
		dirIno := queue[0]
		queue = queue[1:]
		if visited[dirIno] {
			continue
		}
		visited[dirIno] = true
		data, err := st.readInodeData(dirIno)
		if err != nil {
			return nil, err
		}
		st.dirData[dirIno] = data
		entries, err := decodeDir(data)
		if err != nil {
			st.problem(ProblemBadDir, "directory inode %d: %v", dirIno, err)
			st.truncateDirs = append(st.truncateDirs, dirIno)
			continue
		}
		st.dirEntries[dirIno] = entries
		for i, e := range entries {
			if e.ino < 1 || e.ino > uint64(st.sb.ninodes) || st.inodes[e.ino].mode == ModeFree {
				st.problem(ProblemDanglingEntry, "directory inode %d: entry %q -> inode %d (free or out of range)",
					dirIno, e.name, e.ino)
				st.cutEntries[dirIno] = append(st.cutEntries[dirIno], i)
				continue
			}
			links[e.ino]++
			if st.inodes[e.ino].mode == ModeDir {
				queue = append(queue, e.ino)
			}
		}
	}

	// Pass 3: reachability and link counts.
	var allocatedInodes int64
	for ino := uint64(1); int64(ino) <= st.sb.ninodes; ino++ {
		in := &st.inodes[ino]
		if in.mode == ModeFree {
			continue
		}
		allocatedInodes++
		got := links[ino]
		if got == 0 {
			if in.mode == ModeFile && in.nlink == 0 {
				// Not corruption: Remove orphaned the file (link count zeroed
				// in the unlink transaction) and a crash beat the last-close
				// reclaim. The repair is the same as Mount's orphan sweep.
				st.problem(ProblemOrphanInode, "inode %d (%d bytes) orphaned by unlink-while-open", ino, in.length)
			} else {
				st.problem(ProblemDanglingInode, "inode %d (mode %d, %d bytes) unreachable from the root",
					ino, in.mode, in.length)
			}
			st.freeInos = append(st.freeInos, ino)
			continue
		}
		if in.nlink != got {
			st.problem(ProblemBadRefcount, "inode %d: nlink %d but %d directory reference(s)", ino, in.nlink, got)
			st.fixNlink[ino] = got
		}
	}

	// Pass 4: leaked blocks (allocated, referenced by nothing) and counters.
	var freeBlocks int64
	for bn := st.sb.dataStart; bn < st.sb.nblocks; bn++ {
		set := bitmapIsSet(st.bitmap, bn)
		if !set {
			freeBlocks++
			continue
		}
		if _, ok := refs[bn]; !ok {
			st.problem(ProblemLeakedBlock, "block %d allocated in the bitmap but referenced by nothing", bn)
			st.clearBits = append(st.clearBits, bn)
		}
	}
	if st.sb.freeBlocks != freeBlocks {
		st.problem(ProblemBadCounts, "superblock free blocks %d, bitmap says %d", st.sb.freeBlocks, freeBlocks)
		st.fixCounts = true
	}
	if got := st.sb.ninodes - allocatedInodes; st.sb.freeInodes != got {
		st.problem(ProblemBadCounts, "superblock free inodes %d, inode table says %d", st.sb.freeInodes, got)
		st.fixCounts = true
	}
	return st, nil
}

// readInodeData reads the first length bytes of an inode straight from the
// device (holes read as zeros, out-of-range pointers as holes).
func (st *checkState) readInodeData(ino uint64) ([]byte, error) {
	in := &st.inodes[ino]
	out := make([]byte, in.length)
	buf := make([]byte, BlockSize)
	blocks, err := st.blockList(ino)
	if err != nil {
		return nil, err
	}
	for fbn, bn := range blocks {
		off := int64(fbn) * BlockSize
		if off >= in.length {
			break
		}
		if bn == 0 || bn < st.sb.dataStart || bn >= st.sb.nblocks {
			continue
		}
		if err := st.dev.ReadBlock(bn, buf); err != nil {
			return nil, err
		}
		n := in.length - off
		if n > BlockSize {
			n = BlockSize
		}
		copy(out[off:off+n], buf)
	}
	return out, nil
}

// blockList returns the inode's data block numbers in file order, up to
// the block covering length.
func (st *checkState) blockList(ino uint64) ([]int64, error) {
	in := &st.inodes[ino]
	nblocks := (in.length + BlockSize - 1) / BlockSize
	var out []int64
	buf := make([]byte, BlockSize)
	readPtrs := func(bn int64) ([]int64, error) {
		if bn < st.sb.dataStart || bn >= st.sb.nblocks {
			return make([]int64, PtrsPerBlock), nil
		}
		if err := st.dev.ReadBlock(bn, buf); err != nil {
			return nil, err
		}
		ptrs := make([]int64, PtrsPerBlock)
		for i := range ptrs {
			ptrs[i] = int64(binary.BigEndian.Uint64(buf[8*i:]))
		}
		return ptrs, nil
	}
	for fbn := int64(0); fbn < nblocks && fbn < NumDirect; fbn++ {
		out = append(out, in.direct[fbn])
	}
	if nblocks > NumDirect && in.indirect != 0 {
		ptrs, err := readPtrs(in.indirect)
		if err != nil {
			return nil, err
		}
		for fbn := int64(NumDirect); fbn < nblocks && fbn < NumDirect+PtrsPerBlock; fbn++ {
			out = append(out, ptrs[fbn-NumDirect])
		}
	}
	if nblocks > NumDirect+PtrsPerBlock && in.dindirect != 0 {
		outer, err := readPtrs(in.dindirect)
		if err != nil {
			return nil, err
		}
		var inner []int64
		lastOuter := int64(-1)
		for fbn := int64(NumDirect + PtrsPerBlock); fbn < nblocks && fbn < MaxFileBlocks; fbn++ {
			rel := fbn - NumDirect - PtrsPerBlock
			oi := rel / PtrsPerBlock
			if oi != lastOuter {
				if outer[oi] == 0 {
					inner = make([]int64, PtrsPerBlock)
				} else {
					inner, err = readPtrs(outer[oi])
					if err != nil {
						return nil, err
					}
				}
				lastOuter = oi
			}
			out = append(out, inner[rel%PtrsPerBlock])
		}
	}
	return out, nil
}

// repair applies the scan's worklists to the device.
func (st *checkState) repair() error {
	// Cut dangling entries and reset undecodable directories.
	for dirIno, cuts := range st.cutEntries {
		entries := st.dirEntries[dirIno]
		drop := make(map[int]bool, len(cuts))
		for _, i := range cuts {
			drop[i] = true
		}
		var kept []dirEntry
		for i, e := range entries {
			if !drop[i] {
				kept = append(kept, e)
			}
		}
		if err := st.rewriteDir(dirIno, encodeDir(kept)); err != nil {
			return err
		}
	}
	for _, dirIno := range st.truncateDirs {
		if err := st.rewriteDir(dirIno, nil); err != nil {
			return err
		}
	}
	// Release unreachable inodes; their blocks surface as leaks next pass.
	for _, ino := range st.freeInos {
		st.inodes[ino] = inode{mode: ModeFree}
		if err := st.writeInode(ino); err != nil {
			return err
		}
	}
	for ino, nlink := range st.fixNlink {
		st.inodes[ino].nlink = nlink
		if err := st.writeInode(ino); err != nil {
			return err
		}
	}
	// Bitmap: set missing bits, clear (and zero) leaked blocks.
	touched := make(map[int64]bool)
	for _, bn := range st.setBits {
		st.bitmap[bn/8] |= 1 << (bn % 8)
		touched[bn/(BlockSize*8)] = true
	}
	zero := make([]byte, BlockSize)
	for _, bn := range st.clearBits {
		st.bitmap[bn/8] &^= 1 << (bn % 8)
		touched[bn/(BlockSize*8)] = true
		if err := st.dev.WriteBlock(bn, zero); err != nil {
			return err
		}
	}
	var blks []int64
	for blk := range touched {
		blks = append(blks, blk)
	}
	sort.Slice(blks, func(i, j int) bool { return blks[i] < blks[j] })
	for _, blk := range blks {
		if err := st.dev.WriteBlock(st.sb.bitmapStart+blk, st.bitmap[blk*BlockSize:(blk+1)*BlockSize]); err != nil {
			return err
		}
	}
	if st.fixCounts || len(st.setBits) > 0 || len(st.clearBits) > 0 || len(st.freeInos) > 0 {
		var freeBlocks int64
		for bn := st.sb.dataStart; bn < st.sb.nblocks; bn++ {
			if !bitmapIsSet(st.bitmap, bn) {
				freeBlocks++
			}
		}
		var allocated int64
		for ino := uint64(1); int64(ino) <= st.sb.ninodes; ino++ {
			if st.inodes[ino].mode != ModeFree {
				allocated++
			}
		}
		st.sb.freeBlocks = freeBlocks
		st.sb.freeInodes = st.sb.ninodes - allocated
		buf := make([]byte, BlockSize)
		st.sb.encode(buf)
		if err := st.dev.WriteBlock(0, buf); err != nil {
			return err
		}
	}
	return st.dev.Flush()
}

// rewriteDir replaces a directory's data in place (the new data never
// needs more blocks than the old; surplus blocks become leaks handled on
// the next pass) and updates its length.
func (st *checkState) rewriteDir(dirIno uint64, data []byte) error {
	blocks, err := st.blockList(dirIno)
	if err != nil {
		return err
	}
	buf := make([]byte, BlockSize)
	for fbn := 0; fbn*BlockSize < len(data); fbn++ {
		if fbn >= len(blocks) || blocks[fbn] == 0 {
			return fmt.Errorf("disklayer: fsck: directory inode %d has no block for offset %d", dirIno, fbn*BlockSize)
		}
		for i := range buf {
			buf[i] = 0
		}
		copy(buf, data[fbn*BlockSize:])
		if err := st.dev.WriteBlock(blocks[fbn], buf); err != nil {
			return err
		}
	}
	st.inodes[dirIno].length = int64(len(data))
	return st.writeInode(dirIno)
}

// writeInode writes the in-memory image of ino back to the inode table.
func (st *checkState) writeInode(ino uint64) error {
	blk := st.sb.itableStart + int64(ino)/InodesPerBlock
	buf := make([]byte, BlockSize)
	if err := st.dev.ReadBlock(blk, buf); err != nil {
		return err
	}
	st.inodes[ino].encode(buf[(int64(ino)%InodesPerBlock)*InodeSize:])
	return st.dev.WriteBlock(blk, buf)
}

func bitmapIsSet(bitmap []byte, bn int64) bool {
	return bitmap[bn/8]&(1<<(bn%8)) != 0
}

// Fsck audits a mounted file system: dirty state is flushed, the device is
// checked (and optionally repaired) while the mount is quiesced, and the
// in-memory caches are reloaded if a repair rewrote anything under them.
func (fs *DiskFS) Fsck(repair bool) (*CheckReport, error) {
	if err := fs.SyncFS(); err != nil {
		return nil, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	report, err := Check(fs.dev, repair)
	if err != nil {
		return nil, err
	}
	if repair && len(report.Problems) > 0 {
		fs.invalidateCaches()
	}
	return report, nil
}
