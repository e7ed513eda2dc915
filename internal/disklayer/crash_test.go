package disklayer

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"springfs/internal/blockdev"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// The crash-consistency harness: run a scripted metadata-heavy workload on
// a CrashDevice, cut the power at a chosen write index, and require that
//
//   - the image passes fsck with zero inconsistencies,
//   - a fresh Mount succeeds, and
//   - every file whose f.Sync() returned before the cut — not only what
//     the last completed SyncFS covered — is intact: a returned fsync is
//     durable.
//
// TestCrashSweepEveryWrite cuts at every buffered-write index of the
// workload; TestCrashRandomTornReorder adds randomized crash points with
// the torn-write and write-reorder knobs on. Together they cover the
// ≥500 crash points the journal is accountable for.

// crashPattern generates deterministic, path-distinctive file content.
func crashPattern(path string, size int) []byte {
	out := make([]byte, size)
	seed := int64(len(path))
	for _, c := range path {
		seed = seed*131 + int64(c)
	}
	rand.New(rand.NewSource(seed)).Read(out)
	return out
}

// crashWorkload runs the scripted workload on fs. It returns the durable
// snapshot — the contents of every file as of its last returned f.Sync() —
// and the first error hit, expected to be a power cut when the trap is
// armed. A path leaves the snapshot the moment a remove or truncate of it
// is attempted, so on any crash the snapshot is exactly what recovery must
// preserve.
func crashWorkload(fs *DiskFS) (map[string][]byte, error) {
	durable := make(map[string][]byte)

	put := func(path string, size int) error {
		f, err := fs.Create(path, naming.Root)
		if err != nil {
			return fmt.Errorf("create %s: %w", path, err)
		}
		data := crashPattern(path, size)
		if _, err := f.WriteAt(data, 0); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			return fmt.Errorf("sync %s: %w", path, err)
		}
		durable[path] = data
		return nil
	}
	remove := func(path string) error {
		// Drop the path from the snapshot first: a power cut surfacing
		// as an error does not mean the transaction missed the disk, so
		// after the attempt the file's fate is ambiguous either way.
		delete(durable, path)
		if err := fs.Remove(path, naming.Root); err != nil {
			return fmt.Errorf("remove %s: %w", path, err)
		}
		return nil
	}
	mkdir := func(path string) error {
		if _, err := fs.CreateContext(path, naming.Root); err != nil {
			return fmt.Errorf("mkdir %s: %w", path, err)
		}
		return nil
	}
	truncate := func(path string, length int64) error {
		// As with remove: once the truncate is attempted, the on-disk
		// length is ambiguous until its fsync returns.
		data := durable[path]
		delete(durable, path)
		f, err := fs.Open(path, naming.Root)
		if err != nil {
			return fmt.Errorf("open %s: %w", path, err)
		}
		if err := f.(interface{ SetLength(vm.Offset) error }).SetLength(vm.Offset(length)); err != nil {
			return fmt.Errorf("truncate %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			return fmt.Errorf("sync %s: %w", path, err)
		}
		if int64(len(data)) > length {
			data = data[:length]
		}
		durable[path] = data
		return nil
	}
	checkpoint := func() error {
		if err := fs.SyncFS(); err != nil {
			return fmt.Errorf("syncfs: %w", err)
		}
		return nil
	}

	err := func() error {
		// Phase 1: small files and a directory at the root.
		if err := put("a.txt", 100); err != nil {
			return err
		}
		if err := put("b.bin", 3*BlockSize+17); err != nil {
			return err
		}
		if err := mkdir("d1"); err != nil {
			return err
		}
		if err := put("d1/c.txt", BlockSize); err != nil {
			return err
		}
		if err := checkpoint(); err != nil {
			return err
		}
		// Phase 2: an indirect-block file, a removal of synced state, a
		// truncate (block frees), and a deeper tree.
		if err := put("d1/e.bin", (NumDirect+3)*BlockSize); err != nil {
			return err
		}
		if err := remove("a.txt"); err != nil {
			return err
		}
		if err := mkdir("d2"); err != nil {
			return err
		}
		if err := mkdir("d2/sub"); err != nil {
			return err
		}
		if err := put("d2/sub/f.txt", 50); err != nil {
			return err
		}
		if err := truncate("d1/e.bin", 2*BlockSize+9); err != nil {
			return err
		}
		if err := checkpoint(); err != nil {
			return err
		}
		// Phase 3: churn — create, remove, overwrite-by-recreate.
		for i := 0; i < 4; i++ {
			if err := put(fmt.Sprintf("d2/g%d.bin", i), (i+1)*1000); err != nil {
				return err
			}
		}
		if err := remove("d2/g1.bin"); err != nil {
			return err
		}
		if err := remove("b.bin"); err != nil {
			return err
		}
		if err := put("b.bin", 2*BlockSize); err != nil {
			return err
		}
		if err := checkpoint(); err != nil {
			return err
		}
		// Phase 4: free a whole indirect file, then fill the tail.
		if err := remove("d1/e.bin"); err != nil {
			return err
		}
		if err := put("d1/h.bin", (NumDirect+1)*BlockSize); err != nil {
			return err
		}
		if err := remove("d2/sub/f.txt"); err != nil {
			return err
		}
		if err := put("tail.txt", 123); err != nil {
			return err
		}
		return checkpoint()
	}()
	return durable, err
}

// runCrashPoint formats a fresh image behind a CrashDevice, runs the
// workload with the power-cut trap armed at write index n (n < 0 runs
// crash-free), then verifies recovery: fsck clean, remount OK, durable
// snapshot intact. It returns the device's total write count.
func runCrashPoint(t *testing.T, n, seed int64, torn, reorder bool) int64 {
	t.Helper()
	inner := blockdev.NewMem(2048, blockdev.ProfileNone)
	if err := Mkfs(inner, MkfsOptions{}); err != nil {
		t.Fatalf("Mkfs: %v", err)
	}
	crash := blockdev.NewCrash(inner, seed)
	crash.SetTorn(torn)
	crash.SetReorder(reorder)

	node := spring.NewNode("crash")
	defer node.Stop()
	fs, err := Mount(crash, spring.NewDomain(node, "disk"), vm.New(spring.NewDomain(node, "vmm"), "vmm"), "crashfs")
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	if n >= 0 {
		crash.CrashAfterN(n)
	}
	durable, werr := crashWorkload(fs)
	writes := crash.WriteCount()
	if n < 0 {
		if werr != nil {
			t.Fatalf("crash-free workload failed: %v", werr)
		}
		if err := fs.Unmount(); err != nil {
			t.Fatalf("Unmount: %v", err)
		}
	} else if werr != nil && !errors.Is(werr, blockdev.ErrPowerCut) {
		t.Fatalf("crash point %d: workload error is not a power cut: %v", n, werr)
	} else if werr == nil {
		// The trap never fired (n past the workload's writes); force the
		// cut so the recovery path is still exercised.
		_ = crash.PowerCut()
	}
	crash.Restart()

	rep, err := Check(crash, false)
	if err != nil {
		t.Fatalf("crash point %d (seed %d torn %v reorder %v): fsck error: %v", n, seed, torn, reorder, err)
	}
	if !rep.Clean {
		t.Fatalf("crash point %d (seed %d torn %v reorder %v): fsck not clean:\n%s", n, seed, torn, reorder, rep)
	}

	node2 := spring.NewNode("crash2")
	defer node2.Stop()
	fs2, err := Mount(crash, spring.NewDomain(node2, "disk"), vm.New(spring.NewDomain(node2, "vmm"), "vmm"), "crashfs")
	if err != nil {
		t.Fatalf("crash point %d: remount failed: %v", n, err)
	}
	if err := fs2.CheckConsistency(); err != nil {
		t.Fatalf("crash point %d: remounted fs inconsistent: %v", n, err)
	}
	for path, want := range durable {
		f, err := fs2.Open(path, naming.Root)
		if err != nil {
			t.Fatalf("crash point %d: synced file %s missing after recovery: %v", n, path, err)
		}
		got := make([]byte, len(want))
		if len(want) > 0 {
			if _, err := f.ReadAt(got, 0); err != nil {
				t.Fatalf("crash point %d: reading synced file %s: %v", n, path, err)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("crash point %d: synced file %s corrupted after recovery (%d bytes)", n, path, len(want))
		}
	}
	if err := fs2.Unmount(); err != nil {
		t.Fatalf("crash point %d: unmount after recovery: %v", n, err)
	}
	return writes
}

// TestCrashSweepEveryWrite cuts the power at every buffered-write index of
// the workload (a stride of the indexes under -short).
func TestCrashSweepEveryWrite(t *testing.T) {
	total := runCrashPoint(t, -1, 1, false, false)
	if total < 100 {
		t.Fatalf("workload only buffered %d writes; sweep too thin", total)
	}
	stride := int64(1)
	if testing.Short() {
		stride = 16
	}
	points := 0
	for n := int64(1); n <= total; n += stride {
		runCrashPoint(t, n, 1000+n, false, false)
		points++
	}
	t.Logf("swept %d crash points over %d total writes", points, total)
}

// TestCrashRandomTornReorder samples crash points with the torn-write and
// reorder knobs enabled, so recovery also faces partially-written blocks
// and arbitrary subsets of the volatile cache surviving.
func TestCrashRandomTornReorder(t *testing.T) {
	total := runCrashPoint(t, -1, 2, false, false)
	points := 300
	if testing.Short() {
		points = 16
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < points; i++ {
		n := 1 + rng.Int63n(total)
		runCrashPoint(t, n, rng.Int63(), true, true)
	}
	t.Logf("tested %d randomized torn/reordered crash points", points)
}

// TestCrashMidCheckpointReplay cuts the power inside the journal's
// committed-but-not-checkpointed window — where every transaction sits
// until the lazy checkpoint — and verifies Mount replays it: the classic
// crash the redo journal exists for.
func TestCrashMidCheckpointReplay(t *testing.T) {
	inner := blockdev.NewMem(1024, blockdev.ProfileNone)
	if err := Mkfs(inner, MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	crash := blockdev.NewCrash(inner, 7)
	node := spring.NewNode("n")
	defer node.Stop()
	fs, err := Mount(crash, spring.NewDomain(node, "disk"), vm.New(spring.NewDomain(node, "vmm"), "vmm"), "x")
	if err != nil {
		t.Fatal(err)
	}
	// A commit writes the ring and nothing else, so a power cut right
	// after it finds the transaction committed but no home touched: the
	// commit barrier made the journal records durable, and recovery must
	// reconstruct the home locations from them.
	if _, err := fs.Create("survivor", naming.Root); err != nil {
		t.Fatal(err)
	}
	if err := crash.PowerCut(); err != nil {
		t.Fatal(err)
	}
	crash.Restart()

	rep, err := Check(crash, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Replayed {
		t.Error("fsck did not replay the committed transaction")
	}
	if !rep.Clean {
		t.Fatalf("fsck not clean after replay:\n%s", rep)
	}
	node2 := spring.NewNode("n2")
	defer node2.Stop()
	fs2, err := Mount(crash, spring.NewDomain(node2, "disk"), vm.New(spring.NewDomain(node2, "vmm"), "vmm"), "x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs2.Open("survivor", naming.Root); err != nil {
		t.Errorf("file from the replayed transaction missing: %v", err)
	}
}
