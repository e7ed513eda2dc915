package disklayer

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"springfs/internal/blockdev"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// newGroupRig mounts a fresh file system on dev (any Device) for the
// group-commit tests.
func newGroupRig(t testing.TB, dev blockdev.Device) *DiskFS {
	t.Helper()
	node := spring.NewNode("gc")
	t.Cleanup(node.Stop)
	fs, err := Mount(dev, spring.NewDomain(node, "disk"), vm.New(spring.NewDomain(node, "vmm"), "vmm"), "gcfs")
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	return fs
}

// TestGroupCommitBatchesConcurrentTxns is the tentpole's scaling claim in
// miniature: N goroutines issuing independent metadata transactions
// against a device with realistic barrier latency must be absorbed into
// far fewer commit barriers than transactions. The leader/follower
// protocol guarantees at least one barrier actually happened and that
// transactions piled up behind it.
func TestGroupCommitBatchesConcurrentTxns(t *testing.T) {
	const (
		workers = 16
		ops     = 8
	)
	// ProfileFast makes every barrier pay a positioning delay, so while
	// the leader is stalled in Flush the other goroutines stage behind
	// it — that is what creates multi-transaction batches.
	dev := blockdev.NewMem(4096, blockdev.ProfileFast)
	if err := Mkfs(dev, MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	fs := newGroupRig(t, dev)

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				name := fmt.Sprintf("w%d-%d", w, i)
				f, err := fs.Create(name, naming.Root)
				if err != nil {
					errs <- fmt.Errorf("create %s: %w", name, err)
					return
				}
				if err := f.Sync(); err != nil {
					errs <- fmt.Errorf("sync %s: %w", name, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	txns, batches, batched := fs.JournalStats()
	t.Logf("%d txns committed in %d batches (%d txns rode a shared barrier)", txns, batches, batched)
	if txns < workers*ops {
		t.Fatalf("expected at least %d transactions, saw %d", workers*ops, txns)
	}
	if batches < 1 {
		t.Fatalf("no commit batches recorded")
	}
	if batches >= txns {
		t.Errorf("batches (%d) not fewer than transactions (%d): group commit never grouped", batches, txns)
	}
	if batched == 0 {
		t.Errorf("no transaction ever shared a commit barrier")
	}

	if err := fs.SyncFS(); err != nil {
		t.Fatal(err)
	}
	if err := fs.CheckConsistency(); err != nil {
		t.Fatalf("fs inconsistent after concurrent commits: %v", err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	rep, err := Check(dev, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("fsck not clean after concurrent commits:\n%s", rep)
	}
}

// buildMultiTxnWindow formats an image, commits several metadata
// transactions — too few to trigger the lazy checkpoint of a 128-block
// ring, so the ring holds a committed-but-unhomed window of more than one
// transaction — and cuts the power. It returns the crashed device and the names every committed
// transaction promised to exist (the metadata journal's contract; data
// durability is SyncFS's, exercised by the crash sweep in crash_test.go).
func buildMultiTxnWindow(t *testing.T) (*blockdev.CrashDevice, []string) {
	t.Helper()
	inner := blockdev.NewMem(2048, blockdev.ProfileNone)
	if err := Mkfs(inner, MkfsOptions{JournalBlocks: 128}); err != nil {
		t.Fatal(err)
	}
	crash := blockdev.NewCrash(inner, 7)
	fs := newGroupRig(t, crash)

	var want []string
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("win%d.txt", i)
		// Each Create is one committed transaction: when it returns, its
		// records and a CRC'd commit block are on stable storage behind a
		// barrier, even though no home location has been updated yet.
		if _, err := fs.Create(name, naming.Root); err != nil {
			t.Fatal(err)
		}
		want = append(want, name)
	}
	if _, err := fs.CreateContext("windir", naming.Root); err != nil {
		t.Fatal(err)
	}
	// A removal in the middle of the window: replay must apply it too.
	if err := fs.Remove("win2.txt", naming.Root); err != nil {
		t.Fatal(err)
	}
	want = append(want[:2], want[3:]...)
	if fs.jnl.checkpoints != 0 || len(fs.jnl.live) < 7 {
		t.Fatalf("window not left on the ring: %d checkpoints, %d live batches", fs.jnl.checkpoints, len(fs.jnl.live))
	}
	_ = crash.PowerCut()
	crash.Restart()
	return crash, want
}

// TestGroupCommitPowerCutKeepsCommittedWindow cuts the power while the
// ring holds several committed-but-not-checkpointed transactions and
// requires recovery to replay all of them: nothing acknowledged before
// the cut may be lost, and the image must check clean. (Transactions cut
// down mid-commit — the ones allowed to vanish — are exercised by the
// crash sweep in crash_test.go at every write index.)
func TestGroupCommitPowerCutKeepsCommittedWindow(t *testing.T) {
	crash, want := buildMultiTxnWindow(t)

	rep, err := Check(crash, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("fsck not clean after mid-window power cut:\n%s", rep)
	}

	fs := newGroupRig(t, crash)
	for _, name := range want {
		if _, err := fs.Open(name, naming.Root); err != nil {
			t.Fatalf("committed file %s lost: %v", name, err)
		}
	}
	if _, err := fs.Open("win2.txt", naming.Root); err == nil {
		t.Fatal("removed file win2.txt resurrected by replay")
	}
	if _, err := fs.Resolve("windir", naming.Root); err != nil {
		t.Fatalf("committed directory lost: %v", err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitReplayIdempotent replays the same multi-transaction
// window repeatedly and requires the image to be byte-identical after
// every pass: redo records apply the same final state no matter how many
// times recovery runs (a recovery that itself crashes just runs again).
func TestGroupCommitReplayIdempotent(t *testing.T) {
	crash, want := buildMultiTxnWindow(t)

	snapshot := func() []byte { return deviceImage(t, crash) }

	if _, err := replayJournal(crash); err != nil {
		t.Fatalf("first replay: %v", err)
	}
	first := snapshot()
	for i := 0; i < 3; i++ {
		if _, err := replayJournal(crash); err != nil {
			t.Fatalf("replay %d: %v", i+2, err)
		}
		if !bytes.Equal(snapshot(), first) {
			t.Fatalf("replay %d changed the image: not idempotent", i+2)
		}
	}

	// The replayed image must also be a fully working file system.
	rep, err := Check(crash, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("fsck not clean after repeated replay:\n%s", rep)
	}
	fs := newGroupRig(t, crash)
	for _, name := range want {
		if _, err := fs.Open(name, naming.Root); err != nil {
			t.Fatalf("file %s lost: %v", name, err)
		}
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
}
