package snapfs

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"springfs/internal/blockdev"
	"springfs/internal/coherency"
	"springfs/internal/disklayer"
	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// newSFS builds SFS (coherency on disk) on a fresh device.
func newSFS(t *testing.T, blocks int64) (*coherency.CohFS, *vm.VMM, *blockdev.MemDevice) {
	t.Helper()
	node := spring.NewNode("snap-test")
	t.Cleanup(node.Stop)
	vmm := vm.New(spring.NewDomain(node, "vmm"), "vmm")
	dev := blockdev.NewMem(blocks, blockdev.ProfileNone)
	if err := disklayer.Mkfs(dev, disklayer.MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	disk, err := disklayer.Mount(dev, spring.NewDomain(node, "disk"), vmm, "disk")
	if err != nil {
		t.Fatal(err)
	}
	coh := coherency.New(spring.NewDomain(node, "coh"), vmm, "sfs")
	if err := coh.StackOn(disk); err != nil {
		t.Fatal(err)
	}
	return coh, vmm, dev
}

// stackSnap stacks snapfs, in its own domain, on coh.
func stackSnap(t *testing.T, coh *coherency.CohFS) *SnapFS {
	t.Helper()
	snap := New(spring.NewDomain(coh.Domain().Node(), "snap"), "snap")
	if err := snap.StackOn(coh); err != nil {
		t.Fatal(err)
	}
	return snap
}

// newStack builds snapfs on a fresh SFS.
func newStack(t *testing.T, blocks int64) (*SnapFS, *blockdev.MemDevice) {
	t.Helper()
	coh, _, dev := newSFS(t, blocks)
	return stackSnap(t, coh), dev
}

func writeFile(t *testing.T, fs fsys.FS, name string, data []byte) {
	t.Helper()
	f, err := fs.Open(name, naming.Root)
	if err != nil {
		f, err = fs.Create(name, naming.Root)
		if err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
	}
	if err := f.SetLength(0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("write %s: %v", name, err)
	}
}

func readFile(t *testing.T, fs fsys.FS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name, naming.Root)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	l, err := f.GetLength()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, l)
	if l == 0 {
		return out
	}
	if _, err := f.ReadAt(out, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatalf("read %s: %v", name, err)
	}
	return out
}

func TestSnapshotFreezesAndMainDiverges(t *testing.T) {
	snap, _ := newStack(t, 4096)
	writeFile(t, snap, "doc", []byte("version-one"))
	if err := snap.Snapshot("s1"); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	writeFile(t, snap, "doc", []byte("version-TWO"))

	if got := readFile(t, snap, "doc"); string(got) != "version-TWO" {
		t.Errorf("main = %q, want version-TWO", got)
	}
	view, err := snap.SnapshotView("s1")
	if err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, view, "doc"); string(got) != "version-one" {
		t.Errorf("snapshot = %q, want version-one", got)
	}
	// The snapshot view is read-only.
	f, err := view.Open("doc", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, fsys.ErrReadOnly) {
		t.Errorf("write to snapshot = %v, want ErrReadOnly", err)
	}
	if _, err := view.Create("new", naming.Root); !errors.Is(err, fsys.ErrReadOnly) {
		t.Errorf("create in snapshot = %v, want ErrReadOnly", err)
	}
}

func TestCloneDivergesBothWays(t *testing.T) {
	snap, _ := newStack(t, 4096)
	base := bytes.Repeat([]byte("base...."), 2048) // 16 KiB, 4 blocks
	writeFile(t, snap, "data", base)
	if err := snap.Snapshot("s1"); err != nil {
		t.Fatal(err)
	}
	clone, err := snap.Clone("s1", "c1")
	if err != nil {
		t.Fatal(err)
	}

	// Diverge one block in the clone, a different block on the main line.
	cf, err := clone.Open("data", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cf.WriteAt([]byte("CLONE"), 0); err != nil {
		t.Fatal(err)
	}
	mf, err := snap.Open("data", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mf.WriteAt([]byte("MAIN!"), BlockSize); err != nil {
		t.Fatal(err)
	}

	want := append([]byte{}, base...)
	copy(want, "CLONE")
	if got := readFile(t, clone, "data"); !bytes.Equal(got, want) {
		t.Error("clone content wrong after divergence")
	}
	want = append([]byte{}, base...)
	copy(want[BlockSize:], "MAIN!")
	if got := readFile(t, snap, "data"); !bytes.Equal(got, want) {
		t.Error("main content wrong after divergence")
	}
	view, err := snap.SnapshotView("s1")
	if err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, view, "data"); !bytes.Equal(got, base) {
		t.Error("snapshot content changed after divergence")
	}
}

// TestSnapshotIsO1InFileData asserts no-copy snapshots: the bytes held by
// the layer below must not grow with file size when a snapshot is taken.
func TestSnapshotIsO1InFileData(t *testing.T) {
	snap, _ := newStack(t, 16384)
	big := bytes.Repeat([]byte("x"), 64*BlockSize) // 256 KiB
	writeFile(t, snap, "big", big)
	if err := snap.SyncFS(); err != nil {
		t.Fatal(err)
	}
	f, err := snap.Open("big", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	lower := f.(*snapFile).Lower()
	before, err := lower.GetLength()
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Snapshot("s1"); err != nil {
		t.Fatal(err)
	}
	after, err := lower.GetLength()
	if err != nil {
		t.Fatal(err)
	}
	if grown := after - before; grown > 2*BlockSize {
		t.Errorf("snapshot grew the image by %d bytes; want O(1), not O(file size)", grown)
	}
}

func TestUnlinkWhileOpenSurvivesThroughLayer(t *testing.T) {
	snap, _ := newStack(t, 4096)
	writeFile(t, snap, "doomed", []byte("still here"))
	f, err := snap.Open("doomed", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	fsys.Retain(f)
	if err := snap.Remove("doomed", naming.Root); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Open("doomed", naming.Root); err == nil {
		t.Fatal("open after unlink succeeded")
	}
	got := make([]byte, 10)
	if _, err := f.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatalf("read through retained handle: %v", err)
	}
	if string(got) != "still here" {
		t.Errorf("retained handle read %q", got)
	}
	if _, err := f.WriteAt([]byte("STILL"), 0); err != nil {
		t.Fatalf("write through retained handle: %v", err)
	}
	if err := fsys.Release(f); err != nil {
		t.Fatal(err)
	}
}

// TestUnlinkedFileKeptBySnapshot: unlinking on the main line must not free
// an image a snapshot still references.
func TestSnapshotKeepsUnlinkedFile(t *testing.T) {
	snap, _ := newStack(t, 4096)
	writeFile(t, snap, "keep", []byte("precious"))
	if err := snap.Snapshot("s1"); err != nil {
		t.Fatal(err)
	}
	if err := snap.Remove("keep", naming.Root); err != nil {
		t.Fatal(err)
	}
	view, err := snap.SnapshotView("s1")
	if err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, view, "keep"); string(got) != "precious" {
		t.Errorf("snapshot lost unlinked file: %q", got)
	}
}

func TestRenameAndDirectories(t *testing.T) {
	snap, _ := newStack(t, 4096)
	if _, err := snap.CreateContext("d1", naming.Root); err != nil {
		t.Fatal(err)
	}
	writeFile(t, snap, "d1/f", []byte("inside"))
	if err := snap.Snapshot("s1"); err != nil {
		t.Fatal(err)
	}
	if err := snap.Rename("d1", "d2", naming.Root); err != nil {
		t.Fatalf("rename dir: %v", err)
	}
	if got := readFile(t, snap, "d2/f"); string(got) != "inside" {
		t.Errorf("renamed dir content = %q", got)
	}
	if _, err := snap.Resolve("d1/f", naming.Root); err == nil {
		t.Error("old path still resolves on main")
	}
	view, err := snap.SnapshotView("s1")
	if err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, view, "d1/f"); string(got) != "inside" {
		t.Errorf("snapshot path = %q", got)
	}
	// Removing a non-empty directory fails.
	if err := snap.Remove("d2", naming.Root); err == nil {
		t.Error("remove of non-empty dir succeeded")
	}
	if err := snap.Remove("d2/f", naming.Root); err != nil {
		t.Fatal(err)
	}
	if err := snap.Remove("d2", naming.Root); err != nil {
		t.Errorf("remove of empty dir: %v", err)
	}
}

func TestTruncateMasksSnapshotBlocks(t *testing.T) {
	snap, _ := newStack(t, 4096)
	data := bytes.Repeat([]byte("Y"), 3*BlockSize)
	writeFile(t, snap, "t", data)
	if err := snap.Snapshot("s1"); err != nil {
		t.Fatal(err)
	}
	f, err := snap.Open("t", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetLength(100); err != nil {
		t.Fatal(err)
	}
	// Re-extend: the tail must read zeros, not the snapshot's old bytes.
	if err := f.SetLength(int64(len(data))); err != nil {
		t.Fatal(err)
	}
	got := readFile(t, snap, "t")
	want := make([]byte, len(data))
	copy(want, data[:100])
	if !bytes.Equal(got, want) {
		t.Error("re-extended file leaks pre-truncation bytes")
	}
	// The snapshot still has it all.
	view, _ := snap.SnapshotView("s1")
	if got := readFile(t, view, "t"); !bytes.Equal(got, data) {
		t.Error("snapshot content damaged by main-line truncate")
	}
}

func TestManifestSurvivesRemount(t *testing.T) {
	node := spring.NewNode("snap-remount")
	t.Cleanup(node.Stop)
	vmm := vm.New(spring.NewDomain(node, "vmm"), "vmm")
	dev := blockdev.NewMem(4096, blockdev.ProfileNone)
	if err := disklayer.Mkfs(dev, disklayer.MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	mount := func(tag string) *SnapFS {
		disk, err := disklayer.Mount(dev, spring.NewDomain(node, "disk"+tag), vmm, "disk"+tag)
		if err != nil {
			t.Fatal(err)
		}
		coh := coherency.New(spring.NewDomain(node, "coh"+tag), vmm, "sfs"+tag)
		if err := coh.StackOn(disk); err != nil {
			t.Fatal(err)
		}
		snap := New(spring.NewDomain(node, "snap"+tag), "snap"+tag)
		if err := snap.StackOn(coh); err != nil {
			t.Fatal(err)
		}
		return snap
	}
	snap := mount("a")
	writeFile(t, snap, "doc", []byte("one"))
	if err := snap.Snapshot("s1"); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Clone("s1", "c1"); err != nil {
		t.Fatal(err)
	}
	writeFile(t, snap, "doc", []byte("two"))
	if err := snap.SyncFS(); err != nil {
		t.Fatal(err)
	}

	again := mount("b")
	snaps, err := again.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0] != "s1" {
		t.Fatalf("snapshots after remount = %v", snaps)
	}
	clones, err := again.Clones()
	if err != nil {
		t.Fatal(err)
	}
	if len(clones) != 1 || clones[0] != "c1" {
		t.Fatalf("clones after remount = %v", clones)
	}
	if got := readFile(t, again, "doc"); string(got) != "two" {
		t.Errorf("main after remount = %q", got)
	}
	view, err := again.SnapshotView("s1")
	if err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, view, "doc"); string(got) != "one" {
		t.Errorf("snapshot after remount = %q", got)
	}
	clone, err := again.CloneView("c1")
	if err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, clone, "doc"); string(got) != "one" {
		t.Errorf("clone after remount = %q", got)
	}
}

func TestDiff(t *testing.T) {
	snap, _ := newStack(t, 4096)
	writeFile(t, snap, "same", []byte("unchanged"))
	writeFile(t, snap, "mod", bytes.Repeat([]byte("m"), BlockSize+10))
	writeFile(t, snap, "gone", []byte("bye"))
	if err := snap.Snapshot("s1"); err != nil {
		t.Fatal(err)
	}
	writeFile(t, snap, "mod", bytes.Repeat([]byte("M"), BlockSize+10))
	writeFile(t, snap, "new", []byte("hello"))
	if err := snap.Remove("gone", naming.Root); err != nil {
		t.Fatal(err)
	}
	diff, err := snap.Diff("s1", "current")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, d := range diff {
		got[d.Path] = d.Status
	}
	want := map[string]string{"mod": "modified", "new": "added", "gone": "removed"}
	if len(got) != len(want) {
		t.Fatalf("diff = %v, want %v", got, want)
	}
	for p, st := range want {
		if got[p] != st {
			t.Errorf("diff[%s] = %q, want %q", p, got[p], st)
		}
	}
}

// TestSharedCacheAcrossClones asserts the headline sharing property: two
// clones reading the same unmodified data hit the same cached lower pages
// (one cached copy per physical page, not one per clone).
func TestSharedCacheAcrossClones(t *testing.T) {
	snap, dev := newStack(t, 16384)
	data := bytes.Repeat([]byte("shared page data"), 16*BlockSize/16) // 16 blocks
	writeFile(t, snap, "shared", data)
	if err := snap.SyncFS(); err != nil {
		t.Fatal(err)
	}
	if err := snap.Snapshot("s1"); err != nil {
		t.Fatal(err)
	}
	c1, err := snap.Clone("s1", "c1")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := snap.Clone("s1", "c2")
	if err != nil {
		t.Fatal(err)
	}
	// Warm through clone 1, then measure the device reads a full scan
	// through clone 2 causes: all its blocks are shared with clone 1, so
	// the lower page cache must serve them without device I/O.
	_ = readFile(t, c1, "shared")
	before := dev.Reads.Value()
	_ = readFile(t, c2, "shared")
	if delta := dev.Reads.Value() - before; delta > 0 {
		t.Errorf("clone 2's read of shared data hit the device %d times; want 0 (shared cache)", delta)
	}
}

// TestCloneColdReadCostsPlainReadsPlusHeader is the I/O half of the sharing
// claim: a clone serves an unmodified file through the very lower pages a
// stack without snapfs would read, so a cold sequential read through the
// clone costs that stack's device reads plus one, the image header.
func TestCloneColdReadCostsPlainReadsPlusHeader(t *testing.T) {
	const blocks = 512
	payload := make([]byte, blocks*BlockSize)
	for i := range payload {
		payload[i] = byte(i >> 12)
	}
	coldReads := func(coh *coherency.CohFS, vmm *vm.VMM, dev *blockdev.MemDevice, f fsys.File) int64 {
		t.Helper()
		if err := vmm.DropCaches(); err != nil {
			t.Fatal(err)
		}
		if err := coh.DropDataCaches(); err != nil {
			t.Fatal(err)
		}
		before := dev.Reads.Value()
		buf := make([]byte, BlockSize)
		for bn := int64(0); bn < blocks; bn++ {
			if _, err := f.ReadAt(buf, bn*BlockSize); err != nil {
				t.Fatal(err)
			}
			if buf[0] != byte(bn) {
				t.Fatalf("block %d reads %#x", bn, buf[0])
			}
		}
		return dev.Reads.Value() - before
	}

	pcoh, pvmm, pdev := newSFS(t, 4096)
	writeFile(t, pcoh, "stream", payload)
	if err := pcoh.SyncFS(); err != nil {
		t.Fatal(err)
	}
	pf, err := pcoh.Open("stream", naming.Root)
	if err != nil {
		t.Fatal(err)
	}

	ccoh, cvmm, cdev := newSFS(t, 4096)
	snap := stackSnap(t, ccoh)
	writeFile(t, snap, "stream", payload)
	if err := snap.SyncFS(); err != nil {
		t.Fatal(err)
	}
	if err := snap.Snapshot("base"); err != nil {
		t.Fatal(err)
	}
	clone, err := snap.Clone("base", "work")
	if err != nil {
		t.Fatal(err)
	}
	cf, err := clone.Open("stream", naming.Root)
	if err != nil {
		t.Fatal(err)
	}

	plain := coldReads(pcoh, pvmm, pdev, pf)
	if plain < blocks {
		t.Fatalf("plain cold read = %d device reads for %d blocks; caches were not dropped", plain, blocks)
	}
	if got := coldReads(ccoh, cvmm, cdev, cf); got != plain+1 {
		t.Errorf("clone cold read = %d device reads, plain stack = %d; want plain + 1", got, plain)
	}
}
