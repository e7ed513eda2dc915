package disklayer

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"springfs/internal/blockdev"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// recordingDevice wraps a MemDevice and records how I/O arrives: device
// calls (single-block vs clustered run transfers), blocks moved, barriers.
type recordingDevice struct {
	*blockdev.MemDevice
	mu        sync.Mutex
	reads     int   // ReadBlock + ReadRun calls
	writes    int   // WriteBlock calls
	writeRuns []int // blocks per WriteRun call
	flushes   int
}

// ReadBlock implements blockdev.Device.
func (d *recordingDevice) ReadBlock(bn int64, buf []byte) error {
	d.mu.Lock()
	d.reads++
	d.mu.Unlock()
	return d.MemDevice.ReadBlock(bn, buf)
}

// ReadRun implements blockdev.RunReader.
func (d *recordingDevice) ReadRun(bn int64, buf []byte) error {
	d.mu.Lock()
	d.reads++
	d.mu.Unlock()
	return d.MemDevice.ReadRun(bn, buf)
}

// WriteBlock implements blockdev.Device.
func (d *recordingDevice) WriteBlock(bn int64, buf []byte) error {
	d.mu.Lock()
	d.writes++
	d.mu.Unlock()
	return d.MemDevice.WriteBlock(bn, buf)
}

// WriteRun implements blockdev.RunReader.
func (d *recordingDevice) WriteRun(bn int64, buf []byte) error {
	d.mu.Lock()
	d.writeRuns = append(d.writeRuns, len(buf)/blockdev.BlockSize)
	d.mu.Unlock()
	return d.MemDevice.WriteRun(bn, buf)
}

// Flush implements blockdev.Device.
func (d *recordingDevice) Flush() error {
	d.mu.Lock()
	d.flushes++
	d.mu.Unlock()
	return d.MemDevice.Flush()
}

func (d *recordingDevice) reset() {
	d.mu.Lock()
	d.reads, d.writes, d.writeRuns, d.flushes = 0, 0, nil, 0
	d.mu.Unlock()
}

func (d *recordingDevice) snapshot() (writes int, runs []int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writes, append([]int(nil), d.writeRuns...)
}

// io returns the totals since the last reset: read calls, write calls,
// blocks written and barriers.
func (d *recordingDevice) io() (reads, writeCalls, blocksWritten, flushes int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	blocksWritten = d.writes
	for _, n := range d.writeRuns {
		blocksWritten += n
	}
	return d.reads, d.writes + len(d.writeRuns), blocksWritten, d.flushes
}

// TestPageOutClustersDeviceWrites checks that a multi-page PageOut extent
// reaches the device as clustered run transfers (one positioning delay),
// not one WriteBlock per page.
func TestPageOutClustersDeviceWrites(t *testing.T) {
	dev := &recordingDevice{MemDevice: blockdev.NewMem(256, blockdev.ProfileNone)}
	if err := Mkfs(dev.MemDevice, MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	node := spring.NewNode("n")
	t.Cleanup(node.Stop)
	vmm := vm.New(spring.NewDomain(node, "vmm"), "vmm")
	fs, err := Mount(dev, spring.NewDomain(node, "disk-layer"), vmm, "sfsrec")
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("clustered", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	const pages = 16
	payload := make([]byte, pages*BlockSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	pager := &diskPager{file: f.(*diskFile)}
	// First page-out allocates blocks (metadata writes); the steady-state
	// rewrite below is the pure data path.
	if err := pager.PageOut(0, pages*BlockSize, payload); err != nil {
		t.Fatal(err)
	}
	dev.reset()
	if err := pager.PageOut(0, pages*BlockSize, payload); err != nil {
		t.Fatal(err)
	}
	writes, runs := dev.snapshot()
	maxRun := 0
	for _, n := range runs {
		if n > maxRun {
			maxRun = n
		}
	}
	// A fresh file allocates mostly contiguous blocks, so the bulk of the
	// extent must travel as runs; per-block writes for 16 contiguous pages
	// would mean the clustering is broken.
	if maxRun < pages/2 {
		t.Errorf("largest run transfer = %d blocks (runs %v, %d single writes), want >= %d",
			maxRun, runs, writes, pages/2)
	}
	if writes >= pages {
		t.Errorf("%d single-block writes for a %d-page extent: no clustering", writes, pages)
	}
	got, err := pager.PageIn(0, pages*BlockSize, vm.RightsRead)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("data corrupted by clustered page-out")
	}
}

// TestFailedPageOutDoesNotAdvanceMtime is the regression test for the
// ordering bug where PageOut stamped mtime (and dirtied the inode) before
// the device writes, so a failed page-out left metadata claiming a write
// that never reached the disk.
func TestFailedPageOutDoesNotAdvanceMtime(t *testing.T) {
	r := newRig(t, 256)
	now := time.Unix(1000, 0)
	r.fs.SetClock(func() time.Time { return now })
	f, err := r.fs.Create("victim", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	pager := &diskPager{file: f.(*diskFile)}
	data := bytes.Repeat([]byte{0xCD}, int(vm.PageSize))
	if err := pager.PageOut(0, vm.PageSize, data); err != nil {
		t.Fatal(err)
	}
	st1, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}

	now = now.Add(time.Hour)
	r.dev.FailWrites(true)
	if err := pager.PageOut(0, vm.PageSize, data); err == nil {
		t.Fatal("page-out with a failing device reported success")
	}
	st2, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if !st2.ModifyTime.Equal(st1.ModifyTime) {
		t.Errorf("failed page-out advanced mtime from %v to %v", st1.ModifyTime, st2.ModifyTime)
	}

	// Once the device heals, a successful page-out stamps the new time.
	r.dev.FailWrites(false)
	if err := pager.PageOut(0, vm.PageSize, data); err != nil {
		t.Fatal(err)
	}
	st3, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if !st3.ModifyTime.After(st1.ModifyTime) {
		t.Errorf("healthy page-out did not advance mtime: %v", st3.ModifyTime)
	}
}
