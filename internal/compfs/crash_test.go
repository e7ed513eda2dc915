package compfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"springfs/internal/blockdev"
	"springfs/internal/coherency"
	"springfs/internal/disklayer"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// The COMPFS power-cut sweep: a file is created, written, rewritten in
// part, shrunk to mid-block and regrown, with an fsync after each step,
// and the power is cut at every buffered-write index, keeping a random
// subset of the writes not yet flushed. After each cut the
// disk must fsck clean, the image must load, and the file must read
// exactly what the last completed fsync promised or what the next one
// would have.

// compCrashStack mounts disk + coherency + COMPFS over dev.
func compCrashStack(t *testing.T, dev blockdev.Device, tag string) *CompFS {
	t.Helper()
	node := spring.NewNode("compcrash-" + tag)
	t.Cleanup(node.Stop)
	vmm := vm.New(spring.NewDomain(node, "vmm"), "vmm")
	disk, err := disklayer.Mount(dev, spring.NewDomain(node, "disk"), vmm, "disk")
	if err != nil {
		t.Fatalf("%s: mount: %v", tag, err)
	}
	sfs := coherency.New(spring.NewDomain(node, "sfs"), vmm, "sfs")
	if err := sfs.StackOn(disk); err != nil {
		t.Fatal(err)
	}
	comp := New(spring.NewDomain(node, "comp"), "comp", ModeCoherent)
	if err := comp.StackOn(sfs); err != nil {
		t.Fatal(err)
	}
	return comp
}

// compCrashWorkload runs the script and returns the content each fsync
// promised (states[0] is the file before the first) and how many fsyncs
// completed before the first error — expected to be the power cut.
func compCrashWorkload(c *CompFS) (states [][]byte, synced int, err error) {
	rng := rand.New(rand.NewSource(5))
	// Blocks alternate between incompressible (stored raw) and
	// compressible ones of every size.
	block := func(i int) []byte {
		b := make([]byte, BlockSize)
		if i%2 == 0 {
			rng.Read(b)
		} else {
			copy(b, bytes.Repeat([]byte(fmt.Sprintf("block %d ", rng.Int())), BlockSize)[:rng.Intn(BlockSize)])
		}
		return b
	}
	content := []byte{}
	states = [][]byte{nil}
	f, err := c.Create("doc", naming.Root)
	if err != nil {
		return states, 0, err
	}
	step := func(change func() error) error {
		if err := change(); err != nil {
			return err
		}
		states = append(states, bytes.Clone(content))
		if err := f.Sync(); err != nil {
			return err
		}
		synced++
		return nil
	}
	write := func(bn int, b []byte) error {
		if end := (bn + 1) * BlockSize; end > len(content) {
			content = append(content, make([]byte, end-len(content))...)
		}
		copy(content[bn*BlockSize:], b)
		_, err := f.WriteAt(b, int64(bn*BlockSize))
		return err
	}
	setLength := func(n int) error {
		if n < len(content) {
			content = content[:n]
		} else {
			content = append(content, make([]byte, n-len(content))...)
		}
		return f.SetLength(int64(n))
	}
	err = func() error {
		if err := step(func() error {
			for bn := range 8 {
				if err := write(bn, block(bn)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		for _, bns := range [][]int{{1, 2, 5}, {0, 2, 7}} {
			if err := step(func() error {
				for _, bn := range bns {
					if err := write(bn, block(bn)); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				return err
			}
		}
		if err := step(func() error { return setLength(4*BlockSize + BlockSize/3) }); err != nil {
			return err
		}
		// Regrow into the space the shrink gave back.
		return step(func() error {
			for _, bn := range []int{6, 3, 5} {
				if err := write(bn, block(bn+1)); err != nil {
					return err
				}
			}
			return nil
		})
	}()
	return states, synced, err
}

// runCompCrashPoint runs the workload with the power cut armed at write
// index n (n < 0 runs crash-free), verifies recovery and returns the
// writes the run buffered.
func runCompCrashPoint(t *testing.T, n, seed int64) int64 {
	t.Helper()
	inner := blockdev.NewMem(4096, blockdev.ProfileNone)
	if err := disklayer.Mkfs(inner, disklayer.MkfsOptions{}); err != nil {
		t.Fatalf("Mkfs: %v", err)
	}
	crash := blockdev.NewCrash(inner, seed)
	crash.SetReorder(true) // a cut keeps any subset of the unflushed writes
	comp := compCrashStack(t, crash, fmt.Sprintf("w%d", n))
	if n >= 0 {
		crash.CrashAfterN(n)
	}
	states, synced, werr := compCrashWorkload(comp)
	writes := crash.WriteCount()
	switch {
	case n < 0 && werr != nil:
		t.Fatalf("crash-free workload failed: %v", werr)
	case werr != nil && !errors.Is(werr, blockdev.ErrPowerCut):
		t.Fatalf("crash point %d: workload error is not a power cut: %v", n, werr)
	case werr == nil:
		_ = crash.PowerCut()
	}
	crash.Restart()

	rep, err := disklayer.Check(crash, false)
	if err != nil {
		t.Fatalf("crash point %d: fsck error: %v", n, err)
	}
	if !rep.Clean {
		t.Fatalf("crash point %d: fsck not clean:\n%s", n, rep)
	}
	f, err := compCrashStack(t, crash, fmt.Sprintf("r%d", n)).Open("doc", naming.Root)
	if err != nil {
		if synced == 0 && errors.Is(err, naming.ErrNotFound) {
			return writes // cut before the create was durable
		}
		t.Fatalf("crash point %d: open after %d fsyncs: %v", n, synced, err)
	}
	length, err := f.GetLength()
	if err != nil {
		t.Fatalf("crash point %d: load after %d fsyncs: %v", n, synced, err)
	}
	got := make([]byte, length)
	if _, err := f.ReadAt(got, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatalf("crash point %d: read after %d fsyncs: %v", n, synced, err)
	}
	for _, want := range states[synced:min(synced+2, len(states))] {
		if bytes.Equal(got, want) {
			return writes
		}
	}
	t.Fatalf("crash point %d: after %d fsyncs the file reads %d bytes that no fsync promised", n, synced, len(got))
	return writes
}

// TestCompCrashSweep cuts the power at every buffered-write index of the
// workload (a stride of the indexes under -short).
func TestCompCrashSweep(t *testing.T) {
	total := runCompCrashPoint(t, -1, 1)
	if total < 30 {
		t.Fatalf("workload only buffered %d writes; sweep too thin", total)
	}
	stride := int64(1)
	if testing.Short() {
		stride = 8
	}
	points := 0
	for n := int64(1); n <= total; n += stride {
		runCompCrashPoint(t, n, 1000+n)
		points++
	}
	t.Logf("swept %d crash points over %d total writes", points, total)
}
