package stripefs

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"springfs/internal/blockdev"
	"springfs/internal/coherency"
	"springfs/internal/disklayer"
	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// The striping crash sweep: the metadata server loses power at every
// buffered-write index of a workload that creates, renames over and removes
// striped files, while the data servers — other machines — stay up. After
// each cut the metadata volume must fsck clean and remount, every name in
// it must hold a complete layout (the old one or the new one, never a torn
// one), a rename-over must have happened entirely or not at all, and the
// first operation's sweep must leave neither a ".stripe-tmp-" layout nor a
// stripe object no layout references. snapfs's manifest and this layer's
// layouts commit through the same fsys.CommitFile, so this sweep and
// snapfs's pin that code from two on-disk formats.

const crashStripe = vm.PageSize

// sfsOn mounts a disk layer plus coherency layer over dev.
func sfsOn(t *testing.T, dev blockdev.Device, tag string) fsys.StackableFS {
	t.Helper()
	node := spring.NewNode("stripecrash-" + tag)
	t.Cleanup(node.Stop)
	vmm := vm.New(spring.NewDomain(node, "vmm"), "vmm")
	disk, err := disklayer.Mount(dev, spring.NewDomain(node, "disk"), vmm, "disk")
	if err != nil {
		t.Fatalf("%s: mount: %v", tag, err)
	}
	coh := coherency.New(spring.NewDomain(node, "coh"), vmm, "sfs-"+tag)
	if err := coh.StackOn(disk); err != nil {
		t.Fatal(err)
	}
	return coh
}

// newVolume formats an in-memory device.
func newVolume(t *testing.T) *blockdev.MemDevice {
	t.Helper()
	dev := blockdev.NewMem(8192, blockdev.ProfileNone)
	if err := disklayer.Mkfs(dev, disklayer.MkfsOptions{}); err != nil {
		t.Fatalf("Mkfs: %v", err)
	}
	return dev
}

// stripeOver stacks a fresh striping layer on meta and the data servers.
func stripeOver(t *testing.T, tag string, meta fsys.StackableFS, data []fsys.StackableFS) *StripeFS {
	t.Helper()
	node := spring.NewNode("stripecrash-layer-" + tag)
	t.Cleanup(node.Stop)
	s, err := New(spring.NewDomain(node, "stripe"), "stripe", Options{StripeSize: crashStripe})
	if err != nil {
		t.Fatal(err)
	}
	for _, under := range append([]fsys.StackableFS{meta}, data...) {
		if err := s.StackOn(under); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func crashPattern(tag string, size int) []byte {
	out := make([]byte, size)
	for i := range out {
		out[i] = byte(int(tag[i%len(tag)]) + i/len(tag))
	}
	return out
}

// stripeCrashExpect is what the workload had been promised when the power
// went: the object ids it saw committed, and how far it got.
type stripeCrashExpect struct {
	ids         map[string]uint64 // file tag -> object id, once its create returned
	checkpoint  bool              // "keep" and "victim" were made durable by SyncFS
	renameTried bool              // the rename of "keep" over "victim" was issued
	keepData    []byte
}

// stripeCrashWorkload creates, renames over and removes striped files. It
// stops at the first error, which is expected to be the power cut.
func stripeCrashWorkload(s *StripeFS) (*stripeCrashExpect, error) {
	exp := &stripeCrashExpect{ids: map[string]uint64{}}
	put := func(name string, size int) ([]byte, error) {
		f, err := s.Create(name, naming.Root)
		if err != nil {
			return nil, fmt.Errorf("create %s: %w", name, err)
		}
		exp.ids[name] = f.(*stripeFile).lay.objID
		data := crashPattern(name, size)
		if _, err := f.WriteAt(data, 0); err != nil {
			return nil, fmt.Errorf("write %s: %w", name, err)
		}
		if err := f.Sync(); err != nil {
			return nil, fmt.Errorf("sync %s: %w", name, err)
		}
		return data, nil
	}
	err := func() (err error) {
		if exp.keepData, err = put("keep", 3*crashStripe+100); err != nil {
			return err
		}
		if _, err = put("victim", 2*crashStripe); err != nil {
			return err
		}
		if err = s.SyncFS(); err != nil {
			return fmt.Errorf("syncfs: %w", err)
		}
		exp.checkpoint = true
		if _, err = put("scratch", crashStripe+7); err != nil {
			return err
		}
		exp.renameTried = true
		if err = s.Rename("keep", "victim", naming.Root); err != nil {
			return fmt.Errorf("rename over: %w", err)
		}
		if err = s.Remove("scratch", naming.Root); err != nil {
			return fmt.Errorf("remove: %w", err)
		}
		if _, err = put("late", 5); err != nil {
			return err
		}
		return s.SyncFS()
	}()
	return exp, err
}

// verifyStripeCrash checks the recovered layer against the invariants.
func verifyStripeCrash(t *testing.T, n int64, s *StripeFS, meta fsys.StackableFS, data []fsys.StackableFS, exp *stripeCrashExpect) {
	t.Helper()
	ctx := fmt.Sprintf("crash point %d", n)

	// The first operation sweeps. Every name the layer then lists must
	// resolve, through the layer, to a file with a complete layout.
	bindings, err := s.List(naming.Root)
	if err != nil {
		t.Fatalf("%s: list: %v", ctx, err)
	}
	got := map[string]uint64{}
	for _, b := range bindings {
		f, ok := b.Object.(*stripeFile)
		if !ok {
			t.Fatalf("%s: %s does not resolve to a striped file (%T)", ctx, b.Name, b.Object)
		}
		got[b.Name] = f.lay.objID
	}
	raw, err := meta.List(naming.Root)
	if err != nil {
		t.Fatalf("%s: raw list: %v", ctx, err)
	}
	for _, b := range raw {
		if strings.HasPrefix(b.Name, layoutTmpPrefix) {
			t.Errorf("%s: %s survived the first operation's sweep", ctx, b.Name)
		} else if _, ok := got[b.Name]; !ok {
			t.Errorf("%s: metadata entry %s is not a complete layout", ctx, b.Name)
		}
	}

	// Old or new, never a mixture. A name whose create returned holds the
	// id that create committed (or, for "victim", the id renamed over it);
	// one whose create the cut interrupted may hold any complete layout.
	for name, id := range got {
		want, returned := exp.ids[name]
		if returned && id != want && !(name == "victim" && id == exp.ids["keep"]) {
			t.Errorf("%s: %s holds object %016x, committed under no such name", ctx, name, id)
		}
	}
	keep, hasKeep := got["keep"]
	victim, hasVictim := got["victim"]
	if exp.checkpoint {
		renamed := !hasKeep && hasVictim && victim == exp.ids["keep"]
		untouched := hasKeep && hasVictim && keep == exp.ids["keep"] && victim == exp.ids["victim"]
		if !untouched && !(exp.renameTried && renamed) {
			t.Errorf("%s: rename-over landed in between: keep=%016x (present %v) victim=%016x (present %v)",
				ctx, keep, hasKeep, victim, hasVictim)
		}
		// The file that was renamed, never removed, keeps its bytes
		// whichever name it now answers to.
		name := "keep"
		if renamed {
			name = "victim"
		}
		f, err := s.Open(name, naming.Root)
		if err != nil {
			t.Fatalf("%s: open %s: %v", ctx, name, err)
		}
		buf := make([]byte, len(exp.keepData)+1)
		if n, _ := f.ReadAt(buf, 0); !bytes.Equal(buf[:n], exp.keepData) {
			t.Errorf("%s: %s lost its durable contents (%d bytes, want %d)", ctx, name, n, len(exp.keepData))
		}
	}

	// No data server holds an object that no layout references.
	referenced := map[uint64]bool{}
	for _, id := range got {
		referenced[id] = true
	}
	for k, srv := range data {
		objs, err := srv.List(naming.Root)
		if err != nil {
			t.Fatalf("%s: listing data server %d: %v", ctx, k, err)
		}
		for _, b := range objs {
			if id, ok := parseObjName(b.Name); ok && !referenced[id] {
				t.Errorf("%s: data server %d keeps unreferenced object %s after the sweep", ctx, k, b.Name)
			}
		}
	}
}

// runStripeCrashPoint runs the workload with the metadata volume's
// power-cut trap armed at write index n (n < 0 runs crash-free) and
// verifies recovery. It returns how many writes the metadata volume saw.
func runStripeCrashPoint(t *testing.T, n, seed int64) int64 {
	t.Helper()
	tag := fmt.Sprintf("%d", n)
	crash := blockdev.NewCrash(newVolume(t), seed)
	data := []fsys.StackableFS{sfsOn(t, newVolume(t), tag+"-d0"), sfsOn(t, newVolume(t), tag+"-d1")}

	s := stripeOver(t, tag+"-w", sfsOn(t, crash, tag+"-mw"), data)
	if n >= 0 {
		crash.CrashAfterN(n)
	}
	exp, werr := stripeCrashWorkload(s)
	writes := crash.WriteCount()
	if n < 0 {
		if werr != nil {
			t.Fatalf("crash-free workload failed: %v", werr)
		}
	} else if werr != nil && !errors.Is(werr, blockdev.ErrPowerCut) {
		t.Fatalf("crash point %d: workload error is not a power cut: %v", n, werr)
	} else if werr == nil {
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
	meta := sfsOn(t, crash, tag+"-mr")
	verifyStripeCrash(t, n, stripeOver(t, tag+"-r", meta, data), meta, data, exp)
	return writes
}

// TestStripeCrashSweep cuts the metadata server's power at every
// buffered-write index of the workload (a stride of them under -short).
func TestStripeCrashSweep(t *testing.T) {
	total := runStripeCrashPoint(t, -1, 1)
	if total < 20 {
		t.Fatalf("workload only buffered %d metadata writes; sweep too thin", total)
	}
	stride := int64(1)
	if testing.Short() {
		stride = 8
	}
	points := 0
	for n := int64(1); n <= total; n += stride {
		runStripeCrashPoint(t, n, 1000+n)
		points++
	}
	t.Logf("swept %d crash points over %d metadata writes", points, total)
}
