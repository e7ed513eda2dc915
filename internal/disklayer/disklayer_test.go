package disklayer

import (
	"bytes"
	"errors"
	"io"
	"sync/atomic"
	"testing"
	"testing/quick"

	"springfs/internal/blockdev"
	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// rig bundles a formatted file system on a RAM device, mounted through a
// FaultDevice that fails the reads or the writes while told to.
type rig struct {
	node *spring.Node
	dev  *blockdev.MemDevice
	fs   *DiskFS
	vmm  *vm.VMM

	failReads, failWrites atomic.Bool
}

func newRig(t *testing.T, blocks int64) *rig {
	t.Helper()
	node := spring.NewNode("n")
	t.Cleanup(node.Stop)
	r := &rig{node: node, dev: blockdev.NewMem(blocks, blockdev.ProfileNone)}
	if err := Mkfs(r.dev, MkfsOptions{}); err != nil {
		t.Fatalf("Mkfs: %v", err)
	}
	faulty := blockdev.NewFault(r.dev, func(_ int64, write bool) error {
		if write && r.failWrites.Load() || !write && r.failReads.Load() {
			return blockdev.ErrIO
		}
		return nil
	})
	domain := spring.NewDomain(node, "disk-layer")
	r.vmm = vm.New(spring.NewDomain(node, "vmm"), "vmm")
	fs, err := Mount(faulty, domain, r.vmm, "sfs0a")
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	r.fs = fs
	return r
}

func TestMkfsAndMount(t *testing.T) {
	r := newRig(t, 256)
	if r.fs.FSName() != "sfs0a" {
		t.Errorf("FSName = %q", r.fs.FSName())
	}
	if err := r.fs.CheckConsistency(); err != nil {
		t.Error(err)
	}
	// Root directory is empty.
	bindings, err := r.fs.List(naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) != 0 {
		t.Errorf("fresh root has %d entries", len(bindings))
	}
}

func TestMountBadMagic(t *testing.T) {
	node := spring.NewNode("n")
	defer node.Stop()
	dev := blockdev.NewMem(64, blockdev.ProfileNone)
	vmm := vm.New(spring.NewDomain(node, "vmm"), "vmm")
	if _, err := Mount(dev, spring.NewDomain(node, "d"), vmm, "x"); !errors.Is(err, ErrBadMagic) {
		t.Errorf("Mount unformatted device error = %v, want ErrBadMagic", err)
	}
}

func TestCreateWriteReadFile(t *testing.T) {
	r := newRig(t, 256)
	f, err := r.fs.Create("hello.txt", naming.Root)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	msg := []byte("hello, disk layer")
	if _, err := f.WriteAt(msg, 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, len(msg))
	if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("ReadAt = %q, want %q", got, msg)
	}
	attrs, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if attrs.Length != int64(len(msg)) {
		t.Errorf("length = %d, want %d", attrs.Length, len(msg))
	}
}

func TestDataSurvivesRemount(t *testing.T) {
	r := newRig(t, 256)
	f, err := r.fs.Create("persist", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("durable bytes")
	if _, err := f.WriteAt(msg, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	// Remount with fresh domains/VMM.
	node := spring.NewNode("n2")
	defer node.Stop()
	vmm := vm.New(spring.NewDomain(node, "vmm2"), "vmm2")
	fs2, err := Mount(r.dev, spring.NewDomain(node, "disk2"), vmm, "sfs0a")
	if err != nil {
		t.Fatal(err)
	}
	f2, err := fs2.Open("persist", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := f2.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("after remount = %q, want %q", got, msg)
	}
}

func TestReadAtEOFSemantics(t *testing.T) {
	r := newRig(t, 256)
	f, err := r.fs.Create("f", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("12345"), 0); err != nil {
		t.Fatal(err)
	}
	// Read at EOF.
	if n, err := f.ReadAt(make([]byte, 4), 5); n != 0 || err != io.EOF {
		t.Errorf("read at EOF = (%d, %v), want (0, EOF)", n, err)
	}
	// Read crossing EOF.
	buf := make([]byte, 10)
	n, err := f.ReadAt(buf, 3)
	if n != 2 || err != io.EOF {
		t.Errorf("read crossing EOF = (%d, %v), want (2, EOF)", n, err)
	}
	if string(buf[:2]) != "45" {
		t.Errorf("data = %q", buf[:2])
	}
}

func TestLargeFileIndirectBlocks(t *testing.T) {
	// Write past the direct and single-indirect ranges to exercise the
	// double-indirect path: NumDirect + PtrsPerBlock = 522 blocks.
	r := newRig(t, 2048)
	f, err := r.fs.Create("big", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	marks := []int64{
		0,                                      // direct
		(NumDirect - 1) * BlockSize,            // last direct
		NumDirect * BlockSize,                  // first single-indirect
		(NumDirect + 100) * BlockSize,          // mid single-indirect
		(NumDirect + PtrsPerBlock) * BlockSize, // first double-indirect
		(NumDirect+PtrsPerBlock+5)*BlockSize + 123, // unaligned in double-indirect
	}
	for i, off := range marks {
		payload := []byte{byte(i + 1), byte(i + 2), byte(i + 3)}
		if _, err := f.WriteAt(payload, off); err != nil {
			t.Fatalf("write at %d: %v", off, err)
		}
	}
	for i, off := range marks {
		got := make([]byte, 3)
		if _, err := f.ReadAt(got, off); err != nil && err != io.EOF {
			t.Fatalf("read at %d: %v", off, err)
		}
		want := []byte{byte(i + 1), byte(i + 2), byte(i + 3)}
		if !bytes.Equal(got, want) {
			t.Errorf("at %d: got %v want %v", off, got, want)
		}
	}
	if err := r.fs.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

func TestHolesReadAsZero(t *testing.T) {
	r := newRig(t, 512)
	f, err := r.fs.Create("sparse", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, 20*BlockSize); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	if _, err := f.ReadAt(got, 5*BlockSize); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("hole byte %d = %#x", i, b)
		}
	}
}

func TestTruncateFreesBlocks(t *testing.T) {
	r := newRig(t, 512)
	f, err := r.fs.Create("t", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 50*BlockSize)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	freeAfterWrite := r.fs.FreeBlocks()
	if err := f.SetLength(BlockSize); err != nil {
		t.Fatal(err)
	}
	freeAfterTrunc := r.fs.FreeBlocks()
	if freeAfterTrunc <= freeAfterWrite {
		t.Errorf("truncate freed no blocks: %d -> %d", freeAfterWrite, freeAfterTrunc)
	}
	if err := r.fs.CheckConsistency(); err != nil {
		t.Error(err)
	}
	if l, _ := f.GetLength(); l != BlockSize {
		t.Errorf("length after truncate = %d", l)
	}
}

func TestRemoveFreesEverything(t *testing.T) {
	r := newRig(t, 512)
	freeBefore := r.fs.FreeBlocks()
	f, err := r.fs.Create("doomed", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 30*BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Remove("doomed", naming.Root); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	// Root dir may keep one data block for its (now smaller) contents.
	if free := r.fs.FreeBlocks(); free < freeBefore-1 {
		t.Errorf("free blocks after remove = %d, want >= %d", free, freeBefore-1)
	}
	if _, err := r.fs.Open("doomed", naming.Root); err == nil {
		t.Error("open after remove succeeded")
	}
	if err := r.fs.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

func TestDirectories(t *testing.T) {
	r := newRig(t, 512)
	sub, err := r.fs.CreateContext("subdir", naming.Root)
	if err != nil {
		t.Fatalf("CreateContext: %v", err)
	}
	if _, err := r.fs.Create("subdir/inner.txt", naming.Root); err != nil {
		t.Fatalf("Create in subdir: %v", err)
	}
	obj, err := r.fs.Resolve("subdir/inner.txt", naming.Root)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if _, err := fsys.AsFile(obj); err != nil {
		t.Errorf("AsFile: %v", err)
	}
	// Resolving the directory yields a context.
	dirObj, err := r.fs.Resolve("subdir", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	dirCtx, ok := dirObj.(naming.Context)
	if !ok {
		t.Fatal("subdir is not a context")
	}
	bindings, err := dirCtx.List(naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) != 1 || bindings[0].Name != "inner.txt" {
		t.Errorf("subdir listing = %v", bindings)
	}
	// Non-empty directory cannot be removed.
	if err := r.fs.Remove("subdir", naming.Root); !errors.Is(err, ErrDirNotEmpty) {
		t.Errorf("remove non-empty dir error = %v, want ErrDirNotEmpty", err)
	}
	if err := r.fs.Remove("subdir/inner.txt", naming.Root); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Remove("subdir", naming.Root); err != nil {
		t.Errorf("remove empty dir: %v", err)
	}
	_ = sub
}

func TestHardLinkViaBind(t *testing.T) {
	r := newRig(t, 256)
	f, err := r.fs.Create("orig", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("linked"), 0); err != nil {
		t.Fatal(err)
	}
	df := f.(*diskFile)
	if err := r.fs.Bind("alias", df, naming.Root); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	got, err := r.fs.Open("alias", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 6)
	if _, err := got.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "linked" {
		t.Errorf("alias read = %q", buf)
	}
	// Unbinding one name keeps the file alive through the other.
	if err := r.fs.Unbind("orig", naming.Root); err != nil {
		t.Fatal(err)
	}
	if _, err := r.fs.Open("alias", naming.Root); err != nil {
		t.Errorf("alias broken after unlinking orig: %v", err)
	}
}

// TestNameSpaceIsOne: the file system is its root context, so both
// surfaces take paths and report a missing name the same way.
func TestNameSpaceIsOne(t *testing.T) {
	r := newRig(t, 256)
	if _, err := r.fs.CreateContext("d", naming.Root); err != nil {
		t.Fatal(err)
	}
	if _, err := r.fs.Create("d/f", naming.Root); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Unbind("d/f", naming.Root); err != nil {
		t.Errorf("Unbind of a path: %v", err)
	}
	if _, err := r.fs.Resolve("d/f", naming.Root); !fsys.IsNotFound(err) {
		t.Errorf("Resolve after Unbind: %v, want not found", err)
	}
	if err := r.fs.Remove("missing", naming.Root); !fsys.IsNotFound(err) {
		t.Errorf("Remove of a missing name: %v, want not found", err)
	}
}

// TestClosedRefusesNameOps: after Unmount every name operation on either
// surface fails with fsys.ErrClosed and writes nothing to the device.
func TestClosedRefusesNameOps(t *testing.T) {
	r := newRig(t, 256)
	f, err := r.fs.Create("f", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	writes := r.dev.Writes.Value()
	ops := map[string]func() error{
		"Create":        func() error { _, err := r.fs.Create("g", naming.Root); return err },
		"Remove":        func() error { return r.fs.Remove("f", naming.Root) },
		"Rename":        func() error { return r.fs.Rename("f", "h", naming.Root) },
		"Bind":          func() error { return r.fs.Bind("alias", f, naming.Root) },
		"Unbind":        func() error { return r.fs.Unbind("f", naming.Root) },
		"CreateContext": func() error { _, err := r.fs.CreateContext("d", naming.Root); return err },
	}
	for name, op := range ops {
		if err := op(); !errors.Is(err, fsys.ErrClosed) {
			t.Errorf("%s after Unmount: %v, want ErrClosed", name, err)
		}
	}
	if got := r.dev.Writes.Value(); got != writes {
		t.Errorf("device took %d writes after Unmount", got-writes)
	}
}

func TestCanonicalFileObjects(t *testing.T) {
	// The same inode must yield the same file object so binds share
	// pager-cache connections (equivalent memory objects).
	r := newRig(t, 256)
	if _, err := r.fs.Create("f", naming.Root); err != nil {
		t.Fatal(err)
	}
	f1, err := r.fs.Open("f", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := r.fs.Open("f", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Error("two opens returned distinct file objects")
	}
}

func TestStatUsesInodeCacheNoDiskIO(t *testing.T) {
	// Table 2 caption: the disk layer maintains its own cache to handle
	// open and stat operations without requiring disk I/Os.
	r := newRig(t, 256)
	f, err := r.fs.Create("s", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat(); err != nil {
		t.Fatal(err)
	}
	_, writes := r.dev.IOCount()
	for i := 0; i < 100; i++ {
		if _, err := f.Stat(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.fs.Open("s", naming.Root); err != nil {
			t.Fatal(err)
		}
	}
	r2, w2 := r.dev.IOCount()
	// Opens walk the root directory, whose inode is cached; directory
	// data reads go through readFileData which does hit the device. Stat
	// must be I/O free.
	if w2 != writes {
		t.Errorf("stat/open performed %d writes", w2-writes)
	}
	_ = r2
}

func TestPagerDirectIO(t *testing.T) {
	r := newRig(t, 256)
	f, err := r.fs.Create("p", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	df := f.(*diskFile)
	pager := &diskPager{file: df}
	data := make([]byte, BlockSize)
	copy(data, "page content")
	if err := pager.PageOut(0, BlockSize, data); err != nil {
		t.Fatalf("PageOut: %v", err)
	}
	got, err := pager.PageIn(0, BlockSize, vm.RightsRead)
	if err != nil {
		t.Fatalf("PageIn: %v", err)
	}
	if string(got[:12]) != "page content" {
		t.Errorf("PageIn = %q", got[:12])
	}
	// Unaligned requests fail.
	if _, err := pager.PageIn(1, BlockSize, vm.RightsRead); !errors.Is(err, vm.ErrUnaligned) {
		t.Errorf("unaligned PageIn error = %v", err)
	}
	// Attributes flow through the fs_pager interface.
	attrs, err := pager.GetAttributes()
	if err != nil {
		t.Fatal(err)
	}
	_ = attrs
	// The pager narrows to fs_pager and hinted pager.
	var po vm.PagerObject = pager
	if _, ok := spring.Narrow[fsys.FsPagerObject](po); !ok {
		t.Error("disk pager does not narrow to fs_pager")
	}
	if _, ok := spring.Narrow[vm.HintedPager](po); !ok {
		t.Error("disk pager does not narrow to hinted pager")
	}
}

func TestPageInHintClustersSequentialBlocks(t *testing.T) {
	r := newRig(t, 256)
	f, err := r.fs.Create("ra", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 8*BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	pager := &diskPager{file: f.(*diskFile)}
	data, err := pager.PageInHint(0, BlockSize, 4*BlockSize, vm.RightsRead)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != 4*BlockSize {
		t.Errorf("hint returned %d bytes, want %d", len(data), 4*BlockSize)
	}
}

func TestOutOfSpace(t *testing.T) {
	r := newRig(t, 32) // tiny device
	f, err := r.fs.Create("füll", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteAt(make([]byte, 64*BlockSize), 0)
	if err == nil {
		err = f.Sync()
	}
	if !errors.Is(err, ErrNoSpace) {
		t.Errorf("filling device error = %v, want ErrNoSpace", err)
	}
}

func TestDeviceFailurePropagates(t *testing.T) {
	r := newRig(t, 256)
	f, err := r.fs.Create("flaky", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 2*BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	r.failReads.Store(true)
	pager := &diskPager{file: f.(*diskFile)}
	if _, err := pager.PageIn(0, BlockSize, vm.RightsRead); !errors.Is(err, blockdev.ErrIO) {
		t.Errorf("PageIn with failing device error = %v, want ErrIO", err)
	}
	r.failReads.Store(false)
}

// TestPropertyFileIOMatchesModel drives random writes/reads against a
// reference model through the full stack (file -> MappedIO -> VMM -> pager
// -> device).
func TestPropertyFileIOMatchesModel(t *testing.T) {
	r := newRig(t, 1024)
	f, err := r.fs.Create("model", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	const space = 24 * BlockSize
	model := make([]byte, space)
	var modelLen int64
	prop := func(offRaw uint32, lenRaw uint16, seed byte) bool {
		off := int64(offRaw) % (space - 4096)
		length := int64(lenRaw)%4096 + 1
		data := make([]byte, length)
		for i := range data {
			data[i] = seed ^ byte(i*7)
		}
		if _, err := f.WriteAt(data, off); err != nil {
			t.Logf("WriteAt(%d, %d): %v", off, length, err)
			return false
		}
		copy(model[off:], data)
		if off+length > modelLen {
			modelLen = off + length
		}
		if l, _ := f.GetLength(); l != modelLen {
			t.Logf("length = %d, want %d", l, modelLen)
			return false
		}
		got := make([]byte, length)
		if _, err := f.ReadAt(got, off); err != nil && err != io.EOF {
			t.Logf("ReadAt: %v", err)
			return false
		}
		return bytes.Equal(got, model[off:off+length])
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
	if err := r.fs.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

func TestDirEncodeDecodeRoundTrip(t *testing.T) {
	prop := func(names []string) bool {
		var entries []dirEntry
		seen := map[string]bool{}
		for i, n := range names {
			if n == "" || len(n) > MaxNameLen || seen[n] {
				continue
			}
			seen[n] = true
			entries = append(entries, dirEntry{name: n, ino: uint64(i + 1)})
		}
		decoded, err := decodeDir(encodeDir(entries))
		if err != nil {
			return false
		}
		if len(decoded) != len(entries) {
			return false
		}
		for i := range entries {
			if decoded[i] != entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDecodeDirCorruption(t *testing.T) {
	valid := encodeDir([]dirEntry{{name: "file", ino: 7}})
	for cut := 1; cut < len(valid); cut++ {
		if _, err := decodeDir(valid[:cut]); err == nil {
			t.Errorf("decodeDir of %d-byte prefix succeeded", cut)
		}
	}
}

func TestSuperblockRoundTrip(t *testing.T) {
	sb := superblock{
		magic: Magic, version: Version, nblocks: 1000, ninodes: 128,
		bitmapStart: 1, bitmapBlocks: 1, itableStart: 2, itableBlocks: 4,
		dataStart: 6, rootIno: RootIno, freeBlocks: 994, freeInodes: 127,
	}
	buf := make([]byte, BlockSize)
	sb.encode(buf)
	var got superblock
	if err := got.decode(buf); err != nil {
		t.Fatal(err)
	}
	if got != sb {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, sb)
	}
}

func TestInodeRoundTrip(t *testing.T) {
	in := inode{mode: ModeFile, nlink: 2, length: 12345, atime: 111, mtime: 222, indirect: 99, dindirect: 100}
	for i := range in.direct {
		in.direct[i] = int64(i * 10)
	}
	buf := make([]byte, InodeSize)
	in.encode(buf)
	var got inode
	got.decode(buf)
	if got != in {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, in)
	}
}
