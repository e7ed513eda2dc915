package springfs

import (
	"errors"
	"io"
	"os"
	"testing"
	"time"

	"springfs/internal/blockdev"
	"springfs/internal/dfs"
	"springfs/internal/vm"
)

// TestDeviceFailurePropagatesThroughStack verifies that an I/O error at
// the bottom of a three-layer stack surfaces to the client as an error,
// not as silent corruption, and that the stack recovers when the device
// does.
func TestDeviceFailurePropagatesThroughStack(t *testing.T) {
	node := NewNode("fail")
	defer node.Stop()
	sfs := buildSFS(t, node, DiskSpec{Name: "sfs0a"})
	comp := layerOn(t, node, "compfs_creator", map[string]string{"name": "comp"}, sfs.Coherency)
	f, err := comp.Create("f", Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 8*vm.PageSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := comp.SyncFS(); err != nil {
		t.Fatal(err)
	}
	// Go cold, then kill the device: reads must fail loudly.
	if err := node.VMM().DropCaches(); err != nil {
		t.Fatal(err)
	}
	if err := sfs.Coherency.DropDataCaches(); err != nil {
		t.Fatal(err)
	}
	sfs.Device.FailReads(true)
	buf := make([]byte, 64)
	if _, err := f.ReadAt(buf, 0); !errors.Is(err, blockdev.ErrIO) {
		t.Errorf("read with dead device = %v, want ErrIO", err)
	}
	// Recovery: heal the device and retry.
	sfs.Device.FailReads(false)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Errorf("read after recovery: %v", err)
	}
}

// TestWriteFailureDoesNotCorrupt verifies that when the device starts
// rejecting writes mid-flush, the error reaches the caller and previously
// synced data remains readable.
func TestWriteFailureDoesNotCorrupt(t *testing.T) {
	node := NewNode("fail-w")
	defer node.Stop()
	sfs := buildSFS(t, node, DiskSpec{Name: "sfs0a"})
	f, err := sfs.Coherency.Create("stable", Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("committed"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// Now writes start failing; an attempted update must error out on
	// sync rather than vanish.
	sfs.Device.FailWrites(true)
	if _, err := f.WriteAt([]byte("DOOMED!!!"), 4096); err != nil {
		// Write-behind may absorb it; the failure must then surface on
		// sync below.
		t.Logf("write failed eagerly: %v", err)
	}
	if err := sfs.Coherency.SyncFS(); !errors.Is(err, blockdev.ErrIO) {
		t.Errorf("SyncFS with dead device = %v, want ErrIO", err)
	}
	sfs.Device.FailWrites(false)
	// The committed bytes survived.
	buf := make([]byte, 9)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "committed" {
		t.Errorf("committed data = %q", buf)
	}
	if err := sfs.Coherency.SyncFS(); err != nil {
		t.Errorf("sync after recovery: %v", err)
	}
	if err := sfs.Disk.CheckConsistency(); err != nil {
		t.Errorf("fsck after failure cycle: %v", err)
	}
}

// TestIntermittentFailureUnderLoad runs writes while the device fails
// after a budget of operations, then heals it and verifies the file system
// still works and passes its consistency check.
func TestIntermittentFailureUnderLoad(t *testing.T) {
	node := NewNode("fail-i")
	defer node.Stop()
	sfs := buildSFS(t, node, DiskSpec{Name: "sfs0a"})
	sfs.Device.FailAfter(200)
	var firstErr error
	for i := 0; i < 64 && firstErr == nil; i++ {
		name := "f" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		f, err := sfs.Coherency.Create(name, Root)
		if err != nil {
			firstErr = err
			break
		}
		if _, err := f.WriteAt(make([]byte, 2*vm.PageSize), 0); err != nil {
			firstErr = err
			break
		}
		if err := f.Sync(); err != nil {
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		t.Fatal("the injected failure never fired")
	}
	if !errors.Is(firstErr, blockdev.ErrIO) {
		t.Errorf("failure surfaced as %v, want ErrIO", firstErr)
	}
	// Heal and keep going.
	sfs.Device.FailAfter(-1)
	f, err := sfs.Coherency.Create("after-heal", Root)
	if err != nil {
		t.Fatalf("create after heal: %v", err)
	}
	if _, err := f.WriteAt([]byte("recovered"), 0); err != nil {
		t.Fatal(err)
	}
	if err := sfs.Coherency.SyncFS(); err != nil {
		t.Fatalf("sync after heal: %v", err)
	}
	if err := sfs.Disk.CheckConsistency(); err != nil {
		t.Errorf("fsck after intermittent failures: %v", err)
	}
}

// TestDFSPartitionTimesOutAndRecovers partitions the simulated network the
// way real partitions happen — frames silently vanish — and verifies a
// remote read fails with a deadline error within twice the configured call
// timeout, then succeeds again once the network heals.
func TestDFSPartitionTimesOutAndRecovers(t *testing.T) {
	network := NewNetwork(LANInstant)
	joinAndBuild(t, network, "dfs-home", exportSpec("home:dfs"))
	_, cb := joinAndBuild(t, network, "dfs-client", clientSpec("home:dfs", false))
	c := cb.Top.(*dfs.ClientFS).Client()

	f, err := c.Create("wan")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("over the wire")
	if _, err := f.WriteAt(msg, 0); err != nil {
		t.Fatal(err)
	}

	const timeout = 300 * time.Millisecond
	c.SetCallTimeout(timeout)
	network.SetFaults(NetFaults{DropProb: 1})
	defer network.SetFaults(NetFaults{})

	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := f.ReadAt(make([]byte, len(msg)), 0)
		done <- err
	}()
	select {
	case err := <-done:
		if elapsed := time.Since(start); elapsed > 2*timeout {
			t.Errorf("read unblocked after %v, want <= %v", elapsed, 2*timeout)
		}
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("read during partition = %v, want deadline error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("read during partition hung")
	}

	// Heal: the same handle works again.
	network.SetFaults(NetFaults{})
	got := make([]byte, len(msg))
	if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatalf("read after heal: %v", err)
	}
	if string(got) != string(msg) {
		t.Errorf("after heal = %q, want %q", got, msg)
	}
}
