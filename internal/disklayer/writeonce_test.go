package disklayer

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"springfs/internal/blockdev"
	"springfs/internal/naming"
)

// Tests for the write-once journal: a commit is one run, the checkpoint is
// lazy and merged, data is ordered before metadata, freed blocks sit in
// quarantine until the watermark passes them. The I/O budgets count device
// calls on a logging device, not time.

// deviceImage reads the whole device.
func deviceImage(t testing.TB, dev blockdev.Device) []byte {
	t.Helper()
	img := make([]byte, dev.NumBlocks()*BlockSize)
	if err := readRun(dev, 0, img); err != nil {
		t.Fatal(err)
	}
	return img
}

// benchShape formats the benchmark's disk-meta image (4096 blocks, 128
// inodes) on a logging device and mounts the disk layer alone on it.
func benchShape(t *testing.T) (*recordingDevice, *DiskFS) {
	t.Helper()
	dev := &recordingDevice{MemDevice: blockdev.NewMem(4096, blockdev.ProfileNone)}
	if err := Mkfs(dev, MkfsOptions{NumInodes: 128}); err != nil {
		t.Fatal(err)
	}
	return dev, newGroupRig(t, dev)
}

// lifecycle is the benchmark's file lifecycle against the disk layer:
// creat, pwrite 2 KiB, fsync, rename, unlink.
func lifecycle(t *testing.T, fs *DiskFS, i int) {
	t.Helper()
	name := fmt.Sprintf("f%04d", i)
	f, err := fs.Create(name, naming.Root)
	if err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
	if _, err := f.WriteAt(crashPattern(name, 2048), 0); err != nil {
		t.Fatalf("write %s: %v", name, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("fsync %s: %v", name, err)
	}
	if err := fs.Rename(name, name+".r", naming.Root); err != nil {
		t.Fatalf("rename %s: %v", name, err)
	}
	if err := fs.Remove(name+".r", naming.Root); err != nil {
		t.Fatalf("unlink %s: %v", name, err)
	}
}

// TestFsyncSurvivesPowerCut: a file whose f.Sync() returned is durable —
// bytes intact after a power cut (plain, torn, reordered) and remount —
// without any SyncFS. Before data was ordered ahead of metadata, replay
// re-applied the allocation transaction's zero image over the data block.
func TestFsyncSurvivesPowerCut(t *testing.T) {
	for _, mode := range []struct {
		name          string
		torn, reorder bool
	}{{"plain", false, false}, {"torn", true, false}, {"reorder", false, true}, {"torn+reorder", true, true}} {
		t.Run(mode.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				inner := blockdev.NewMem(1024, blockdev.ProfileNone)
				if err := Mkfs(inner, MkfsOptions{}); err != nil {
					t.Fatal(err)
				}
				crash := blockdev.NewCrash(inner, seed)
				crash.SetTorn(mode.torn)
				crash.SetReorder(mode.reorder)
				fs := newGroupRig(t, crash)
				// Unsynced work in flight: it may vanish at the cut, it may
				// not hurt what was synced.
				if g, err := fs.Create("unsynced", naming.Root); err == nil {
					_, _ = g.WriteAt(crashPattern("unsynced", 3*BlockSize), 0)
				}
				// The cut comes straight after the last fsync returns: that
				// file's allocation is the newest thing on the ring.
				names := []string{"indirect", "small"}
				want := map[string][]byte{
					"indirect": crashPattern("indirect", (NumDirect+5)*BlockSize+7),
					"small":    crashPattern("small", 2048),
				}
				for _, name := range names {
					f, err := fs.Create(name, naming.Root)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := f.WriteAt(want[name], 0); err != nil {
						t.Fatal(err)
					}
					if err := f.Sync(); err != nil {
						t.Fatal(err)
					}
				}
				if err := crash.PowerCut(); err != nil {
					t.Fatal(err)
				}
				crash.Restart()
				fs2 := newGroupRig(t, crash)
				for name, data := range want {
					if got := readAll(t, fs2, name, len(data)); !bytes.Equal(got, data) {
						t.Fatalf("seed %d: fsynced file %s did not survive the power cut", seed, name)
					}
				}
				rep, err := fs2.Fsck(false)
				if err != nil || !rep.Clean {
					t.Fatalf("seed %d: fsck after recovery: %v\n%s", seed, err, rep)
				}
			}
		})
	}
}

// TestIOBudgetWarmLifecycle: a warmed lifecycle that triggers no checkpoint
// reads nothing from the device and writes it at most six times — five
// commit runs and one data write.
func TestIOBudgetWarmLifecycle(t *testing.T) {
	dev, fs := benchShape(t)
	lifecycle(t, fs, 0)
	lifecycle(t, fs, 1)
	if err := fs.SyncFS(); err != nil {
		t.Fatal(err)
	}
	dev.reset()
	before := fs.jnl.checkpoints
	lifecycle(t, fs, 2)
	if fs.jnl.checkpoints != before {
		t.Fatal("the lifecycle triggered a checkpoint; the budget is for one that does not")
	}
	reads, writeCalls, _, flushes := dev.io()
	t.Logf("one warm lifecycle: %d reads, %d write calls, %d barriers", reads, writeCalls, flushes)
	if reads != 0 {
		t.Errorf("warm lifecycle issued %d device reads, want 0", reads)
	}
	if writeCalls > 6 {
		t.Errorf("warm lifecycle issued %d device write calls, want <= 6 (5 commit runs + 1 data write)", writeCalls)
	}
}

// TestIOBudgetSixteenLifecycles: checkpoints and quarantine zeroing
// included, a lifecycle costs at most 12 device write calls and 6 barriers
// (43 write calls when every commit wrote its homes eagerly, block by
// block).
func TestIOBudgetSixteenLifecycles(t *testing.T) {
	dev, fs := benchShape(t)
	lifecycle(t, fs, 0)
	dev.reset()
	const n = 16
	for i := 1; i <= n; i++ {
		lifecycle(t, fs, i)
	}
	reads, writeCalls, blocks, flushes := dev.io()
	t.Logf("%d lifecycles: %d reads, %d write calls (%d blocks), %d barriers, %d checkpoints",
		n, reads, writeCalls, blocks, flushes, fs.jnl.checkpoints)
	if fs.jnl.checkpoints == 0 {
		t.Error("16 lifecycles never triggered the lazy checkpoint")
	}
	if reads != 0 {
		t.Errorf("%d device reads over %d warm lifecycles, want 0", reads, n)
	}
	if writeCalls > 12*n {
		t.Errorf("%d device write calls over %d lifecycles, want <= %d", writeCalls, n, 12*n)
	}
	if flushes > 6*n {
		t.Errorf("%d barriers over %d lifecycles, want <= %d", flushes, n, 6*n)
	}
	// The seal leaves the raw device self-contained and free of freed data.
	if err := fs.SyncFS(); err != nil {
		t.Fatal(err)
	}
	rep, err := Check(dev, false)
	if err != nil || !rep.Clean || rep.Replayed {
		t.Fatalf("raw device after SyncFS: err %v\n%s", err, rep)
	}
}

// TestIOBudgetFsyncNewFile: fsync of 4 MiB of new file writes each data
// block once — data never travels through the journal — plus a handful of
// commit runs (3 334 block writes when every new block was journaled as a
// zero image first).
func TestIOBudgetFsyncNewFile(t *testing.T) {
	dev, fs := benchShape(t)
	f, err := fs.Create("big", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 1024
	data := crashPattern("big", blocks*BlockSize)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	dev.reset()
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	_, writeCalls, written, _ := dev.io()
	t.Logf("fsync of %d new blocks: %d block writes in %d device calls", blocks, written, writeCalls)
	if limit := blocks * 115 / 100; written > limit {
		t.Errorf("fsync of %d new blocks cost %d device block writes, want <= %d", blocks, written, limit)
	}
	if got := readAll(t, fs, "big", len(data)); !bytes.Equal(got, data) {
		t.Error("file content wrong after fsync")
	}
}

// TestIOBudgetMount: mounting a cleanly unmounted image reads the ring
// once, by the run, and the inode table by the block (259 read calls when
// the ring was read twice block by block and the table once per inode).
func TestIOBudgetMount(t *testing.T) {
	dev, fs := benchShape(t)
	for i := 0; i < 4; i++ {
		lifecycle(t, fs, i)
	}
	if _, err := fs.Create("kept", naming.Root); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	dev.reset()
	fs2 := newGroupRig(t, dev)
	reads, writeCalls, _, _ := dev.io()
	t.Logf("clean mount: %d read calls, %d write calls", reads, writeCalls)
	if reads > 12 {
		t.Errorf("clean mount issued %d device read calls, want <= 12", reads)
	}
	if writeCalls != 0 {
		t.Errorf("clean mount wrote the device %d times", writeCalls)
	}
	if _, err := fs2.Open("kept", naming.Root); err != nil {
		t.Errorf("file missing after remount: %v", err)
	}
}

// TestRenameSameDirRewritesDirOnce: a rename inside a one-entry directory
// edits the entry list once — the directory keeps its block instead of
// being emptied, freed and re-allocated on the way.
func TestRenameSameDirRewritesDirOnce(t *testing.T) {
	r := newRig(t, 256)
	if _, err := r.fs.Create("only", naming.Root); err != nil {
		t.Fatal(err)
	}
	dirBlock := func() int64 {
		r.fs.mu.Lock()
		defer r.fs.mu.Unlock()
		ci, err := r.fs.readInode(RootIno)
		if err != nil {
			t.Fatal(err)
		}
		return ci.in.direct[0]
	}
	before, free := dirBlock(), r.fs.FreeBlocks()
	if err := r.fs.Rename("only", "moved", naming.Root); err != nil {
		t.Fatal(err)
	}
	if after := dirBlock(); after != before || before == 0 {
		t.Errorf("directory block hopped %d -> %d across a same-directory rename", before, after)
	}
	if got := r.fs.FreeBlocks(); got != free {
		t.Errorf("free blocks %d -> %d across a rename", free, got)
	}
	if _, err := r.fs.Open("moved", naming.Root); err != nil {
		t.Errorf("renamed file missing: %v", err)
	}
	if _, err := r.fs.Open("only", naming.Root); err == nil {
		t.Error("old name still resolves")
	}
}

// TestQuarantineFullDisk: on a full device, blocks just unlinked are in
// quarantine, not gone — the next allocation forces a checkpoint and takes
// them instead of failing. A genuinely full disk still returns ErrNoSpace,
// with free-space accounting back at baseline and the image clean.
func TestQuarantineFullDisk(t *testing.T) {
	r := newRig(t, 64)
	fill := func(name string) (int64, error) {
		f, err := r.fs.Create(name, naming.Root)
		if err != nil {
			return 0, err
		}
		var n int64
		for ; ; n++ {
			if _, err := f.WriteAt(crashPattern(name, BlockSize), n*BlockSize); err != nil {
				return n, err
			}
			if err := f.Sync(); err != nil {
				return n, err
			}
		}
	}
	wrote, err := fill("hog")
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("filling the device: %v, want ErrNoSpace", err)
	}
	if wrote < 8 {
		t.Fatalf("only %d blocks fitted", wrote)
	}
	// The failed page-out must have given its reservation back.
	if err := r.fs.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	full := r.fs.FreeBlocks()
	if held := r.fs.alloc.nheld; held != 0 {
		t.Fatalf("%d blocks still held after a failed allocation", held)
	}

	// A genuinely full disk: another attempt fails the same way and moves
	// no counter.
	if _, err := r.fs.Create("more", naming.Root); err == nil {
		f, _ := r.fs.Open("more", naming.Root)
		_, werr := f.WriteAt(make([]byte, 4*BlockSize), 0)
		if werr == nil {
			werr = f.Sync()
		}
		if !errors.Is(werr, ErrNoSpace) {
			t.Fatalf("write on a full disk: %v, want ErrNoSpace", werr)
		}
		if err := r.fs.Remove("more", naming.Root); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.fs.FreeBlocks(); got < full {
		t.Errorf("free blocks %d after failed writes, baseline %d", got, full)
	}

	// Unlink the hog: its blocks count as free at once...
	if err := r.fs.Remove("hog", naming.Root); err != nil {
		t.Fatal(err)
	}
	if got := r.fs.FreeBlocks(); got < full+wrote {
		t.Errorf("FreeBlocks = %d after unlink, want >= %d (quarantined blocks count as free)", got, full+wrote)
	}
	// ...and a re-create that needs them gets them, by way of a forced
	// checkpoint, without a SyncFS in between.
	checkpoints := r.fs.jnl.checkpoints
	f, err := r.fs.Create("again", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	data := crashPattern("again", int(wrote)*BlockSize)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("re-create on quarantined space: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("re-create on quarantined space: %v", err)
	}
	if r.fs.jnl.checkpoints == checkpoints {
		t.Error("allocation from quarantine did not force a checkpoint")
	}
	if got := readAll(t, r.fs, "again", len(data)); !bytes.Equal(got, data) {
		t.Error("file on reused blocks reads back wrong")
	}
	if err := r.fs.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	rep, err := r.fs.Fsck(false)
	if err != nil || !rep.Clean {
		t.Fatalf("fsck: %v\n%s", err, rep)
	}
}

// TestCheckpointCrashSweep cuts the power at every write index of a run of
// lifecycles on a small ring, so the cuts land inside commit runs, inside
// lazy checkpoints (merged home writes riding the next commit's barrier)
// and inside quarantine zeroing. Every cut must remount to an fsck-clean
// image with every fsynced file intact, and replay must be idempotent.
func TestCheckpointCrashSweep(t *testing.T) {
	// run returns the files fsynced (and not since unlinked) when the
	// workload stopped, and whether the power cut stopped it.
	run := func(fs *DiskFS) (map[string][]byte, error) {
		durable := make(map[string][]byte)
		for i := 0; i < 10; i++ {
			name := fmt.Sprintf("k%d", i)
			f, err := fs.Create(name, naming.Root)
			if err != nil {
				return durable, err
			}
			data := crashPattern(name, (i%3+1)*BlockSize-100)
			if _, err := f.WriteAt(data, 0); err != nil {
				return durable, err
			}
			if err := f.Sync(); err != nil {
				return durable, err
			}
			durable[name] = data
			if i >= 2 {
				// Unlink the file made two rounds ago: its blocks go into
				// quarantine and come out zeroed a checkpoint later.
				old := fmt.Sprintf("k%d", i-2)
				delete(durable, old)
				if err := fs.Remove(old, naming.Root); err != nil {
					return durable, err
				}
			}
		}
		return durable, nil
	}
	stride := int64(1)
	if testing.Short() {
		stride = 7
	}
	var total int64
	for n := int64(0); n == 0 || n <= total; n += stride {
		inner := blockdev.NewMem(512, blockdev.ProfileNone)
		if err := Mkfs(inner, MkfsOptions{JournalBlocks: 16}); err != nil {
			t.Fatal(err)
		}
		crash := blockdev.NewCrash(inner, 300+n)
		fs := newGroupRig(t, crash)
		crash.CrashAfterN(n) // n == 0: the crash-free sizing pass
		durable, err := run(fs)
		if n == 0 {
			if err != nil {
				t.Fatalf("crash-free run: %v", err)
			}
			total = crash.WriteCount()
			if fs.jnl.checkpoints < 3 || fs.jnl.durableSeq == 0 {
				t.Fatalf("workload too thin: %d checkpoints", fs.jnl.checkpoints)
			}
		} else if err != nil && !errors.Is(err, blockdev.ErrPowerCut) {
			t.Fatalf("crash point %d: %v", n, err)
		}
		_ = crash.PowerCut()
		crash.Restart()

		if _, err := replayJournal(crash); err != nil {
			t.Fatalf("crash point %d: replay: %v", n, err)
		}
		first := deviceImage(t, crash)
		for i := 0; i < 3; i++ {
			if _, err := replayJournal(crash); err != nil {
				t.Fatalf("crash point %d: replay %d: %v", n, i+2, err)
			}
			if !bytes.Equal(deviceImage(t, crash), first) {
				t.Fatalf("crash point %d: replay %d changed the image", n, i+2)
			}
		}
		rep, err := Check(crash, false)
		if err != nil || !rep.Clean {
			t.Fatalf("crash point %d: fsck: %v\n%s", n, err, rep)
		}
		fs2 := newGroupRig(t, crash)
		for name, data := range durable {
			if got := readAll(t, fs2, name, len(data)); !bytes.Equal(got, data) {
				t.Fatalf("crash point %d: fsynced file %s corrupted", n, name)
			}
		}
		if err := fs2.Unmount(); err != nil {
			t.Fatalf("crash point %d: unmount: %v", n, err)
		}
	}
	t.Logf("swept %d write indexes", total)
}
