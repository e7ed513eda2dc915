package disklayer

import (
	"bytes"
	"errors"
	"testing"

	"springfs/internal/blockdev"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// Deterministic fsck tests: seed each corruption class directly into an
// unmounted image, then require Check to detect it, repair it, come back
// clean, and leave the image mountable.

// fsckRig formats and populates an image, unmounts it, and erases the
// journal slot (so a stale committed transaction cannot replay over the
// corruption a test is about to seed).
func fsckRig(t *testing.T) (*blockdev.MemDevice, superblock) {
	t.Helper()
	node := spring.NewNode("fsck")
	t.Cleanup(node.Stop)
	dev := blockdev.NewMem(512, blockdev.ProfileNone)
	if err := Mkfs(dev, MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(dev, spring.NewDomain(node, "disk"), vm.New(spring.NewDomain(node, "vmm"), "vmm"), "fsck")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"one.txt", "two.bin", "d/three.txt"} {
		if p == "d/three.txt" {
			if _, err := fs.CreateContext("d", naming.Root); err != nil {
				t.Fatal(err)
			}
		}
		f, err := fs.Create(p, naming.Root)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(bytes.Repeat([]byte(p), 300), 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	if err := eraseJournal(dev); err != nil {
		t.Fatal(err)
	}
	var sb superblock
	buf := make([]byte, BlockSize)
	if err := dev.ReadBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := sb.decode(buf); err != nil {
		t.Fatal(err)
	}
	return dev, sb
}

func readInodeRaw(t *testing.T, dev blockdev.Device, sb superblock, ino uint64) inode {
	t.Helper()
	buf := make([]byte, BlockSize)
	if err := dev.ReadBlock(sb.itableStart+int64(ino)/InodesPerBlock, buf); err != nil {
		t.Fatal(err)
	}
	var in inode
	in.decode(buf[(int64(ino)%InodesPerBlock)*InodeSize:])
	return in
}

func writeInodeRaw(t *testing.T, dev blockdev.Device, sb superblock, ino uint64, in inode) {
	t.Helper()
	blk := sb.itableStart + int64(ino)/InodesPerBlock
	buf := make([]byte, BlockSize)
	if err := dev.ReadBlock(blk, buf); err != nil {
		t.Fatal(err)
	}
	in.encode(buf[(int64(ino)%InodesPerBlock)*InodeSize:])
	if err := dev.WriteBlock(blk, buf); err != nil {
		t.Fatal(err)
	}
}

// flipBitmapBit toggles block bn's allocation bit on disk and returns its
// previous value.
func flipBitmapBit(t *testing.T, dev blockdev.Device, sb superblock, bn int64) bool {
	t.Helper()
	blk := bn / (BlockSize * 8)
	buf := make([]byte, BlockSize)
	if err := dev.ReadBlock(sb.bitmapStart+blk, buf); err != nil {
		t.Fatal(err)
	}
	idx := bn % (BlockSize * 8) / 8 // byte within this bitmap block
	was := buf[idx]&(1<<(bn%8)) != 0
	buf[idx] ^= 1 << (bn % 8)
	if err := dev.WriteBlock(sb.bitmapStart+blk, buf); err != nil {
		t.Fatal(err)
	}
	return was
}

// requireRepairCycle asserts the full detect → repair → clean → mountable
// sequence, with wantClass among the detected problems.
func requireRepairCycle(t *testing.T, dev *blockdev.MemDevice, wantClass string) {
	t.Helper()
	rep, err := Check(dev, false)
	if err != nil {
		t.Fatalf("detect pass: %v", err)
	}
	if rep.Clean {
		t.Fatalf("corruption not detected (wanted %s)", wantClass)
	}
	found := false
	for _, p := range rep.Problems {
		if p.Class == wantClass {
			found = true
		}
	}
	if !found {
		t.Fatalf("wanted a %s problem, got:\n%s", wantClass, rep)
	}

	rep, err = Check(dev, true)
	if err != nil {
		t.Fatalf("repair pass: %v", err)
	}
	if !rep.Clean {
		t.Fatalf("repair did not converge:\n%s", rep)
	}
	for _, p := range rep.Problems {
		if !p.Repaired {
			t.Errorf("problem not marked repaired: %s", p)
		}
	}

	rep, err = Check(dev, false)
	if err != nil {
		t.Fatalf("verify pass: %v", err)
	}
	if !rep.Clean || len(rep.Problems) != 0 {
		t.Fatalf("image not clean after repair:\n%s", rep)
	}

	node := spring.NewNode("fsck-mount")
	defer node.Stop()
	fs, err := Mount(dev, spring.NewDomain(node, "disk"), vm.New(spring.NewDomain(node, "vmm"), "vmm"), "x")
	if err != nil {
		t.Fatalf("Mount after repair: %v", err)
	}
	if err := fs.CheckConsistency(); err != nil {
		t.Errorf("CheckConsistency after repair: %v", err)
	}
}

func TestFsckRepairsLeakedBlock(t *testing.T) {
	dev, sb := fsckRig(t)
	// Find a free data block, fill it with a marker, and mark it allocated
	// with no referent.
	var leaked int64
	for bn := sb.nblocks - 1; bn >= sb.dataStart; bn-- {
		if !flipBitmapBit(t, dev, sb, bn) {
			leaked = bn
			break
		}
		flipBitmapBit(t, dev, sb, bn) // was allocated; put it back
	}
	if leaked == 0 {
		t.Fatal("no free data block found")
	}
	marker := bytes.Repeat([]byte{0xAB}, BlockSize)
	if err := dev.WriteBlock(leaked, marker); err != nil {
		t.Fatal(err)
	}
	requireRepairCycle(t, dev, ProblemLeakedBlock)
	// The repaired block must be back to the allocator's zeroed-free
	// convention.
	buf := make([]byte, BlockSize)
	if err := dev.ReadBlock(leaked, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, BlockSize)) {
		t.Error("leaked block was freed but not zeroed")
	}
}

func TestFsckRepairsDanglingInode(t *testing.T) {
	dev, sb := fsckRig(t)
	// Fabricate an allocated inode in a free table slot, owning one block
	// (also marked allocated), with no directory entry anywhere.
	var ghost uint64
	for ino := uint64(1); int64(ino) <= sb.ninodes; ino++ {
		if readInodeRaw(t, dev, sb, ino).mode == ModeFree {
			ghost = ino
			break
		}
	}
	if ghost == 0 {
		t.Fatal("no free inode slot")
	}
	var block int64
	for bn := sb.nblocks - 1; bn >= sb.dataStart; bn-- {
		if !flipBitmapBit(t, dev, sb, bn) {
			block = bn // now marked allocated
			break
		}
		flipBitmapBit(t, dev, sb, bn)
	}
	in := inode{mode: ModeFile, nlink: 1, length: 100}
	in.direct[0] = block
	writeInodeRaw(t, dev, sb, ghost, in)
	requireRepairCycle(t, dev, ProblemDanglingInode)
	if got := readInodeRaw(t, dev, sb, ghost); got.mode != ModeFree {
		t.Errorf("dangling inode %d still allocated after repair", ghost)
	}
}

func TestFsckRepairsBitmapMismatch(t *testing.T) {
	dev, sb := fsckRig(t)
	// Clear the allocation bit under a live file's data block.
	in := readInodeRaw(t, dev, sb, RootIno)
	if in.direct[0] == 0 {
		t.Fatal("root directory has no data block")
	}
	if !flipBitmapBit(t, dev, sb, in.direct[0]) {
		t.Fatal("root data block was not marked allocated")
	}
	requireRepairCycle(t, dev, ProblemUnallocatedRef)
}

func TestFsckRepairsDanglingEntry(t *testing.T) {
	dev, sb := fsckRig(t)
	// Free a file's inode in place, stranding its directory entry (and
	// leaking its data blocks).
	var victim uint64
	for ino := uint64(RootIno + 1); int64(ino) <= sb.ninodes; ino++ {
		if in := readInodeRaw(t, dev, sb, ino); in.mode == ModeFile {
			victim = ino
			break
		}
	}
	if victim == 0 {
		t.Fatal("no file inode found")
	}
	writeInodeRaw(t, dev, sb, victim, inode{mode: ModeFree})
	requireRepairCycle(t, dev, ProblemDanglingEntry)
}

func TestFsckRepairsBadRefcount(t *testing.T) {
	dev, sb := fsckRig(t)
	var victim uint64
	for ino := uint64(RootIno + 1); int64(ino) <= sb.ninodes; ino++ {
		if in := readInodeRaw(t, dev, sb, ino); in.mode == ModeFile {
			victim = ino
			break
		}
	}
	if victim == 0 {
		t.Fatal("no file inode found")
	}
	in := readInodeRaw(t, dev, sb, victim)
	in.nlink = 5
	writeInodeRaw(t, dev, sb, victim, in)
	requireRepairCycle(t, dev, ProblemBadRefcount)
	if got := readInodeRaw(t, dev, sb, victim); got.nlink != 1 {
		t.Errorf("nlink after repair = %d, want 1", got.nlink)
	}
}

func TestFsckCleanImage(t *testing.T) {
	dev, _ := fsckRig(t)
	rep, err := Check(dev, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean || len(rep.Problems) != 0 {
		t.Fatalf("freshly unmounted image not clean:\n%s", rep)
	}
}

// TestMountRejectsTruncatedImage is the geometry-validation regression
// test: an image cut short (e.g. a partial dd) must fail Mount with
// ErrGeometry, not fail later with out-of-range I/O.
func TestMountRejectsTruncatedImage(t *testing.T) {
	big := blockdev.NewMem(512, blockdev.ProfileNone)
	if err := Mkfs(big, MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	small := blockdev.NewMem(64, blockdev.ProfileNone)
	buf := make([]byte, BlockSize)
	for bn := int64(0); bn < small.NumBlocks(); bn++ {
		if err := big.ReadBlock(bn, buf); err != nil {
			t.Fatal(err)
		}
		if err := small.WriteBlock(bn, buf); err != nil {
			t.Fatal(err)
		}
	}
	node := spring.NewNode("n")
	defer node.Stop()
	_, err := Mount(small, spring.NewDomain(node, "disk"), vm.New(spring.NewDomain(node, "vmm"), "vmm"), "x")
	if !errors.Is(err, ErrGeometry) {
		t.Errorf("Mount truncated image error = %v, want ErrGeometry", err)
	}
	if _, err := Check(small, false); !errors.Is(err, ErrGeometry) {
		t.Errorf("Check truncated image error = %v, want ErrGeometry", err)
	}
}

// TestFreedBlocksAreZeroedOnDisk is the regression test for the
// allocator's convention that free blocks are zeroed: after a file is
// removed and the file system synced, none of its content may remain in
// the data region (zeroing is deferred until the freeing transaction
// checkpoints, which SyncFS forces).
func TestFreedBlocksAreZeroedOnDisk(t *testing.T) {
	t.Run("journaled", func(t *testing.T) {
		node := spring.NewNode("zero")
		defer node.Stop()
		dev := blockdev.NewMem(512, blockdev.ProfileNone)
		if err := Mkfs(dev, MkfsOptions{}); err != nil {
			t.Fatal(err)
		}
		fs, err := Mount(dev, spring.NewDomain(node, "disk"), vm.New(spring.NewDomain(node, "vmm"), "vmm"), "z")
		if err != nil {
			t.Fatal(err)
		}
		marker := bytes.Repeat([]byte("SECRET-8"), BlockSize/8)
		f, err := fs.Create("doomed", naming.Root)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if _, err := f.WriteAt(marker, int64(i)*BlockSize); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := fs.SyncFS(); err != nil {
			t.Fatal(err)
		}
		if err := fs.Remove("doomed", naming.Root); err != nil {
			t.Fatal(err)
		}
		if err := fs.SyncFS(); err != nil {
			t.Fatal(err)
		}
		var sb superblock
		buf := make([]byte, BlockSize)
		if err := dev.ReadBlock(0, buf); err != nil {
			t.Fatal(err)
		}
		if err := sb.decode(buf); err != nil {
			t.Fatal(err)
		}
		for bn := sb.dataStart; bn < sb.nblocks; bn++ {
			if err := dev.ReadBlock(bn, buf); err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(buf, []byte("SECRET-8")) {
				t.Fatalf("freed block %d still holds file content", bn)
			}
		}
	})
}
