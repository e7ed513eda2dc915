package springfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"springfs/internal/blockdev"
	"springfs/internal/dfs"
	"springfs/internal/disklayer"
	"springfs/internal/fsys"
	"springfs/internal/vm"
)

// faultySFS builds an SFS on a formatted RAM disk behind a FaultDevice
// that asks fault about every block.
func faultySFS(t *testing.T, node *Node, fault func(bn int64, write bool) error) *SFS {
	t.Helper()
	mem := blockdev.NewMem(4096, blockdev.ProfileNone)
	if err := disklayer.Mkfs(mem, disklayer.MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	return buildSFS(t, node, DiskSpec{Name: "sfs0a", Device: blockdev.NewFault(mem, fault)})
}

// deviceFaults fails a device's reads or writes while told to.
type deviceFaults struct{ reads, writes atomic.Bool }

func (d *deviceFaults) fault(_ int64, write bool) error {
	if write && d.writes.Load() || !write && d.reads.Load() {
		return blockdev.ErrIO
	}
	return nil
}

// TestDeviceFailurePropagatesThroughStack verifies that an I/O error at
// the bottom of a three-layer stack surfaces to the client as an error,
// not as silent corruption, and that the stack recovers when the device
// does.
func TestDeviceFailurePropagatesThroughStack(t *testing.T) {
	node := NewNode("fail")
	defer node.Stop()
	var failing deviceFaults
	sfs := faultySFS(t, node, failing.fault)
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
	failing.reads.Store(true)
	buf := make([]byte, 64)
	if _, err := f.ReadAt(buf, 0); !errors.Is(err, blockdev.ErrIO) {
		t.Errorf("read with dead device = %v, want ErrIO", err)
	}
	// Recovery: heal the device and retry.
	failing.reads.Store(false)
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
	var failing deviceFaults
	sfs := faultySFS(t, node, failing.fault)
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
	failing.writes.Store(true)
	if _, err := f.WriteAt([]byte("DOOMED!!!"), 4096); err != nil {
		// Write-behind may absorb it; the failure must then surface on
		// sync below.
		t.Logf("write failed eagerly: %v", err)
	}
	if err := sfs.Coherency.SyncFS(); !errors.Is(err, blockdev.ErrIO) {
		t.Errorf("SyncFS with dead device = %v, want ErrIO", err)
	}
	failing.writes.Store(false)
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
	var armed atomic.Bool
	var seen atomic.Int64 // blocks asked about since the fault was armed
	sfs := faultySFS(t, node, func(int64, bool) error {
		if armed.Load() && seen.Add(1) > 200 {
			return blockdev.ErrIO
		}
		return nil
	})
	armed.Store(true)
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
	armed.Store(false)
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

// TestWriteErrorUnderCoherencyKeepsData places a fault where no device or
// layer switch could: between cryptfs and the coherency layer above it
// (sfs → cryptfs → fault → coherency). While the fault fails every write,
// fsync through the POSIX adapter reports the error and the bytes stay
// readable from the top, because coherency keeps a failed run's blocks
// dirty. Once the fault clears, a second fsync writes them through, and
// they survive a cold read with the disk consistent.
func TestWriteErrorUnderCoherencyKeepsData(t *testing.T) {
	node := NewNode("fault-coh")
	defer node.Stop()
	var failWrites atomic.Bool
	writes := map[string]bool{"write": true, "page_out": true, "write_out": true, "page_sync": true}
	if err := fsys.RegisterCreator(node.Root(), "fault_creator", fsys.CreatorFunc(func(config map[string]string) (StackableFS, error) {
		return fsys.NewFaultFS(config["name"], func(op string) error {
			if failWrites.Load() && writes[op] {
				return fmt.Errorf("%s: %w", op, blockdev.ErrIO)
			}
			return nil
		}), nil
	}), Root); err != nil {
		t.Fatal(err)
	}
	b, err := node.Build(Spec{
		Disks: []DiskSpec{{Name: "sfs"}},
		Layers: []LayerSpec{
			{Name: "crypt", Creator: "cryptfs_creator", On: []string{"sfs"}, Config: map[string]string{"passphrase": "k"}},
			{Name: "fault", Creator: "fault_creator", On: []string{"crypt"}},
			{Name: "coh", Creator: "coherency_creator", On: []string{"fault"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("kept while the layer below fails "), 700)
	p := NewProcess(b.Top)
	fd, err := p.Creat("/doc")
	if err != nil {
		t.Fatal(err)
	}
	failWrites.Store(true) // before the write, so no write-behind gets through first
	if _, err := p.Write(fd, want); err != nil {
		t.Fatal(err)
	}
	readBack := func(when string) {
		t.Helper()
		if got, err := ReadFile(b.Top, "doc"); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: read %d bytes (%v), want %d", when, len(got), err, len(want))
		}
	}

	if err := p.Fsync(fd); !errors.Is(err, blockdev.ErrIO) {
		t.Fatalf("fsync with the writes below failing = %v, want the injected error", err)
	}
	// Empty the VMM, so the read has to come from coherency's blocks.
	if err := node.VMM().DropCaches(); err != nil {
		t.Fatal(err)
	}
	readBack("after the failed fsync")

	failWrites.Store(false)
	if err := p.Fsync(fd); err != nil {
		t.Fatalf("fsync once the fault cleared: %v", err)
	}
	if err := b.DropCaches(); err != nil {
		t.Fatal(err)
	}
	readBack("cold, after the second fsync")
	if err := b.Disks["sfs"].Disk.CheckConsistency(); err != nil {
		t.Errorf("fsck: %v", err)
	}
}
