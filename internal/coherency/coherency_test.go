package coherency

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"testing/quick"

	"springfs/internal/blockdev"
	"springfs/internal/disklayer"
	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/vm"
)

// sfsRig is a full SFS: a coherency layer stacked on a disk layer, as in
// Figure 10 of the paper.
type sfsRig struct {
	node *spring.Node
	dev  *blockdev.MemDevice
	disk *disklayer.DiskFS
	coh  *CohFS
	vmm  *vm.VMM
}

// newSFS builds SFS with both layers in one domain (sameDomain) or in two
// (the Table 2 configurations).
func newSFS(t *testing.T, sameDomain bool) *sfsRig {
	t.Helper()
	node := spring.NewNode("n")
	t.Cleanup(node.Stop)
	vmmDomain := spring.NewDomain(node, "vmm")
	vmm := vm.New(vmmDomain, "vmm")
	diskDomain := spring.NewDomain(node, "disk-layer")
	cohDomain := diskDomain
	if !sameDomain {
		cohDomain = spring.NewDomain(node, "coherency-layer")
	}
	dev := blockdev.NewMem(2048, blockdev.ProfileNone)
	if err := disklayer.Mkfs(dev, disklayer.MkfsOptions{}); err != nil {
		t.Fatal(err)
	}
	disk, err := disklayer.Mount(dev, diskDomain, vmm, "disk0a")
	if err != nil {
		t.Fatal(err)
	}
	coh := New(cohDomain, vmm, "sfs")
	var under fsys.StackableFS = disk
	if !sameDomain {
		under = fsys.WrapStackable(spring.Connect(cohDomain, diskDomain), disk)
	}
	if err := coh.StackOn(under); err != nil {
		t.Fatal(err)
	}
	return &sfsRig{node: node, dev: dev, disk: disk, coh: coh, vmm: vmm}
}

func TestSFSCreateWriteRead(t *testing.T) {
	for _, sameDomain := range []bool{true, false} {
		name := map[bool]string{true: "one domain", false: "two domains"}[sameDomain]
		t.Run(name, func(t *testing.T) {
			r := newSFS(t, sameDomain)
			f, err := r.coh.Create("file", naming.Root)
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			msg := []byte("coherent data")
			if _, err := f.WriteAt(msg, 0); err != nil {
				t.Fatalf("WriteAt: %v", err)
			}
			got := make([]byte, len(msg))
			if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
				t.Fatalf("ReadAt: %v", err)
			}
			if !bytes.Equal(got, msg) {
				t.Errorf("read = %q, want %q", got, msg)
			}
			attrs, err := f.Stat()
			if err != nil {
				t.Fatal(err)
			}
			if attrs.Length != int64(len(msg)) {
				t.Errorf("length = %d", attrs.Length)
			}
		})
	}
}

func TestSFSPersistsThroughSync(t *testing.T) {
	r := newSFS(t, true)
	f, err := r.coh.Create("durable", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("write-behind, flushed on sync")
	if _, err := f.WriteAt(msg, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.coh.SyncFS(); err != nil {
		t.Fatalf("SyncFS: %v", err)
	}
	if err := r.disk.Unmount(); err != nil {
		t.Fatal(err)
	}
	// Remount the device fresh: data must be there.
	node := spring.NewNode("n2")
	defer node.Stop()
	vmm := vm.New(spring.NewDomain(node, "vmm2"), "vmm2")
	disk2, err := disklayer.Mount(r.dev, spring.NewDomain(node, "disk2"), vmm, "disk0a")
	if err != nil {
		t.Fatal(err)
	}
	f2, err := disk2.Open("durable", naming.Root)
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
	attrs, err := f2.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if attrs.Length != int64(len(msg)) {
		t.Errorf("length below = %d, want %d", attrs.Length, len(msg))
	}
}

func TestCachedOpsMakeNoLowerCalls(t *testing.T) {
	// The third Table 2 result: when the coherency layer caches the
	// results of read, write, and stat calls, there is no stacking
	// overhead since there are no calls from the coherency layer to the
	// lower layer.
	r := newSFS(t, true)
	f, err := r.coh.Create("cached", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 4096)
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if _, err := f.Stat(); err != nil {
		t.Fatal(err)
	}
	// Warm: repeat the operations and verify no lower-layer traffic.
	pageIns := r.coh.LowerPageIns.Value()
	pageOuts := r.coh.LowerPageOuts.Value()
	reads, writes := r.dev.IOCount()
	for i := 0; i < 50; i++ {
		if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(payload, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Stat(); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.coh.LowerPageIns.Value(); got != pageIns {
		t.Errorf("cached ops caused %d lower page-ins", got-pageIns)
	}
	if got := r.coh.LowerPageOuts.Value(); got != pageOuts {
		t.Errorf("cached ops caused %d lower page-outs", got-pageOuts)
	}
	r2, w2 := r.dev.IOCount()
	if r2 != reads || w2 != writes {
		t.Errorf("cached ops caused device I/O: reads %d->%d writes %d->%d", reads, r2, writes, w2)
	}
}

func TestTwoCacheManagersStayCoherent(t *testing.T) {
	// Two VMMs (standing in for two independent cache managers, e.g. a
	// local VMM and a DFS layer) map the same coherent file; writes by one
	// must be visible to the other through the MRSW protocol.
	r := newSFS(t, true)
	f, err := r.coh.Create("shared", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetLength(vm.PageSize); err != nil {
		t.Fatal(err)
	}
	vmmB := vm.New(spring.NewDomain(r.node, "vmmB"), "vmmB")

	mapA, err := r.vmm.Map(f, vm.RightsWrite)
	if err != nil {
		t.Fatal(err)
	}
	mapB, err := vmmB.Map(f, vm.RightsWrite)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := mapA.WriteAt([]byte("from A"), 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 6)
	if _, err := mapB.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "from A" {
		t.Errorf("B read %q after A's write", got)
	}
	// And back: B writes, A reads.
	if _, err := mapB.WriteAt([]byte("from B"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := mapA.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "from B" {
		t.Errorf("A read %q after B's write", got)
	}
	if r.coh.Revocations.Value() == 0 {
		t.Error("no coherency revocations recorded; MRSW protocol never ran")
	}
}

func TestMRSWInvariant(t *testing.T) {
	// After a write grant to one manager, no other manager may hold the
	// block; after read grants, nobody holds it read-write.
	r := newSFS(t, true)
	f, err := r.coh.Create("inv", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetLength(vm.PageSize); err != nil {
		t.Fatal(err)
	}
	cf := f.(*cohFile)
	vmmB := vm.New(spring.NewDomain(r.node, "vmmB"), "vmmB")
	mapA, err := r.vmm.Map(f, vm.RightsWrite)
	if err != nil {
		t.Fatal(err)
	}
	mapB, err := vmmB.Map(f, vm.RightsWrite)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariant := func(when string) {
		t.Helper()
		b := cf.acquire(0)
		defer cf.release(b)
		writers, readers := 0, 0
		for _, rts := range b.holders {
			if rts.CanWrite() {
				writers++
			} else {
				readers++
			}
		}
		if writers > 1 || (writers == 1 && readers > 0) {
			t.Errorf("%s: MRSW violated: %d writers, %d readers", when, writers, readers)
		}
	}
	buf := make([]byte, 8)
	if _, err := mapA.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := mapB.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	checkInvariant("two readers")
	if _, err := mapA.WriteAt([]byte("w"), 0); err != nil {
		t.Fatal(err)
	}
	checkInvariant("A wrote")
	if _, err := mapB.WriteAt([]byte("w"), 0); err != nil {
		t.Fatal(err)
	}
	checkInvariant("B wrote")
	if _, err := mapA.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	checkInvariant("A read after B wrote")
}

func TestFigure4DualRole(t *testing.T) {
	// Figure 4: a file system acting as a pager (to the VMM above) and as
	// a cache manager (to the file system below) at the same time, through
	// the same cache/pager interfaces.
	r := newSFS(t, true)
	f, err := r.coh.Create("dual", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	cf := f.(*cohFile)
	// Cache-manager half: the coherency file's connection to the lower
	// file is a vm.CacheManager and holds a pager object for it.
	var _ vm.CacheManager = &cf.conn
	pager, err := cf.conn.Pager()
	if err != nil {
		t.Fatal(err)
	}
	// The lower pager narrows to fs_pager: the layer knows it is talking
	// to a file system (Section 4.3).
	if _, ok := spring.Narrow[fsys.FsPagerObject](pager); !ok {
		t.Error("lower pager does not narrow to fs_pager")
	}
	// Pager half: binding the coherent file yields pager-cache
	// connections served by this layer.
	if r.coh.table.Len() == 0 {
		t.Error("no upper pager-cache connections established")
	}
	// And the layer's cache object (exported to the lower layer) narrows
	// to fs_cache.
	var cache vm.CacheObject = &lowerCacheObject{f: cf}
	if _, ok := spring.Narrow[fsys.FsCacheObject](cache); !ok {
		t.Error("lower-facing cache object does not narrow to fs_cache")
	}
}

func TestCoherentStackConstruction(t *testing.T) {
	// Section 6.3: stacking a coherency layer on a non-coherent base and
	// exporting all files through it yields a coherent stack. Stack TWO
	// coherency layers to exercise revocation propagating through a
	// middle layer.
	r := newSFS(t, true)
	top := New(spring.NewDomain(r.node, "coh-top"), r.vmm, "coh-top")
	if err := top.StackOn(r.coh); err != nil {
		t.Fatal(err)
	}
	f, err := top.Create("deep", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("through two coherency layers")
	if _, err := f.WriteAt(msg, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("read = %q", got)
	}
	// Open the same file through the middle layer: writes through the top
	// must be visible (the middle layer reconciles with the top via the
	// pager-cache connection between them).
	mid, err := r.coh.Open("deep", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	got2 := make([]byte, len(msg))
	if _, err := mid.ReadAt(got2, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, msg) {
		t.Errorf("read through middle layer = %q, want %q", got2, msg)
	}
	// And a write through the middle layer invalidates the top's caches.
	if _, err := mid.WriteAt([]byte("MIDDLE"), 0); err != nil {
		t.Fatal(err)
	}
	got3 := make([]byte, 6)
	if _, err := f.ReadAt(got3, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(got3) != "MIDDLE" {
		t.Errorf("top read %q after middle write", got3)
	}
}

func TestStackOnTwiceFails(t *testing.T) {
	r := newSFS(t, true)
	other := New(spring.NewDomain(r.node, "x"), r.vmm, "x")
	if err := r.coh.StackOn(other); err != fsys.ErrAlreadyStacked {
		t.Errorf("second StackOn error = %v, want ErrAlreadyStacked", err)
	}
}

func TestUnstackedLayerFails(t *testing.T) {
	node := spring.NewNode("n")
	defer node.Stop()
	vmm := vm.New(spring.NewDomain(node, "vmm"), "vmm")
	coh := New(spring.NewDomain(node, "coh"), vmm, "lonely")
	if _, err := coh.Create("f", naming.Root); err != fsys.ErrNotStacked {
		t.Errorf("Create on unstacked layer error = %v, want ErrNotStacked", err)
	}
	if _, err := coh.Resolve("f", naming.Root); err != fsys.ErrNotStacked {
		t.Errorf("Resolve on unstacked layer error = %v, want ErrNotStacked", err)
	}
}

func TestDirectoriesThroughCoherencyLayer(t *testing.T) {
	r := newSFS(t, true)
	if _, err := r.coh.CreateContext("dir", naming.Root); err != nil {
		t.Fatal(err)
	}
	if _, err := r.coh.Create("dir/nested", naming.Root); err != nil {
		t.Fatal(err)
	}
	obj, err := r.coh.Resolve("dir/nested", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fsys.AsFile(obj)
	if err != nil {
		t.Fatal(err)
	}
	// Files resolved through wrapped directories are coherent wrappers,
	// not raw lower files.
	if _, ok := f.(*cohFile); !ok {
		t.Errorf("resolved file is %T, want *cohFile", f)
	}
	// Listing wraps too.
	dirObj, err := r.coh.Resolve("dir", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	bindings, err := dirObj.(naming.Context).List(naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) != 1 {
		t.Fatalf("listing = %v", bindings)
	}
	if _, ok := bindings[0].Object.(*cohFile); !ok {
		t.Errorf("listed object is %T, want *cohFile", bindings[0].Object)
	}
}

func TestCanonicalWrapperIdentity(t *testing.T) {
	r := newSFS(t, true)
	if _, err := r.coh.Create("same", naming.Root); err != nil {
		t.Fatal(err)
	}
	f1, err := r.coh.Open("same", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := r.coh.Open("same", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Error("two opens yield different coherent wrappers")
	}
}

// TestWrappedFileLookupAddsNoAllocation guards the cached-open hot path:
// resolving or opening a file whose wrapper already exists is the lower
// layer's lookup plus a handle-table hit, and the layer's share of that
// allocates nothing.
func TestWrappedFileLookupAddsNoAllocation(t *testing.T) {
	r := newSFS(t, true)
	if _, err := r.coh.Create("file", naming.Root); err != nil {
		t.Fatal(err)
	}
	lower := testing.AllocsPerRun(200, func() {
		if _, err := r.disk.Resolve("file", naming.Root); err != nil {
			t.Fatal(err)
		}
	})
	resolve := testing.AllocsPerRun(200, func() {
		if _, err := r.coh.Resolve("file", naming.Root); err != nil {
			t.Fatal(err)
		}
	})
	open := testing.AllocsPerRun(200, func() {
		if _, err := r.coh.Open("file", naming.Root); err != nil {
			t.Fatal(err)
		}
	})
	if resolve > lower || open > lower {
		t.Errorf("allocations per call: lower Resolve %.0f, CohFS.Resolve %.0f, CohFS.Open %.0f; the layer must add none",
			lower, resolve, open)
	}
}

func TestRemoveDropsWrapper(t *testing.T) {
	r := newSFS(t, true)
	if _, err := r.coh.Create("gone", naming.Root); err != nil {
		t.Fatal(err)
	}
	if err := r.coh.Remove("gone", naming.Root); err != nil {
		t.Fatal(err)
	}
	if _, err := r.coh.Open("gone", naming.Root); err == nil {
		t.Error("open after remove succeeded")
	}
}

func TestConcurrentCoherentClients(t *testing.T) {
	// Stress: several cache managers hammer disjoint and overlapping
	// blocks concurrently; under -race this shakes out protocol races.
	r := newSFS(t, true)
	f, err := r.coh.Create("stress", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	const nBlocks = 8
	if err := f.SetLength(nBlocks * vm.PageSize); err != nil {
		t.Fatal(err)
	}
	const clients = 4
	mappings := make([]*vm.Mapping, clients)
	for i := range mappings {
		vmm := vm.New(spring.NewDomain(r.node, "vmm-stress"), "vmm-stress")
		m, err := vmm.Map(f, vm.RightsWrite)
		if err != nil {
			t.Fatal(err)
		}
		mappings[i] = m
	}
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < 60; i++ {
				blk := int64((c + i) % nBlocks)
				off := blk * vm.PageSize
				if i%3 == 0 {
					for j := range buf {
						buf[j] = byte(c)
					}
					if _, err := mappings[c].WriteAt(buf, off); err != nil {
						t.Errorf("client %d write: %v", c, err)
						return
					}
				} else {
					if _, err := mappings[c].ReadAt(buf, off); err != nil {
						t.Errorf("client %d read: %v", c, err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestPropertyAlternatingClientsSeeEachOther: for random offsets/payloads,
// a write by one client is always visible to the other.
func TestPropertyAlternatingClientsSeeEachOther(t *testing.T) {
	r := newSFS(t, true)
	f, err := r.coh.Create("prop", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	const space = 8 * vm.PageSize
	if err := f.SetLength(space); err != nil {
		t.Fatal(err)
	}
	vmmB := vm.New(spring.NewDomain(r.node, "vmmB"), "vmmB")
	mapA, err := r.vmm.Map(f, vm.RightsWrite)
	if err != nil {
		t.Fatal(err)
	}
	mapB, err := vmmB.Map(f, vm.RightsWrite)
	if err != nil {
		t.Fatal(err)
	}
	turn := 0
	prop := func(offRaw uint32, seed byte) bool {
		off := int64(offRaw) % (space - 64)
		payload := make([]byte, 64)
		for i := range payload {
			payload[i] = seed ^ byte(i)
		}
		w, rd := mapA, mapB
		if turn%2 == 1 {
			w, rd = mapB, mapA
		}
		turn++
		if _, err := w.WriteAt(payload, off); err != nil {
			return false
		}
		got := make([]byte, 64)
		if _, err := rd.ReadAt(got, off); err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCreatorRegistration(t *testing.T) {
	node := spring.NewNode("n")
	defer node.Stop()
	vmm := vm.New(spring.NewDomain(node, "vmm"), "vmm")
	root := naming.NewContext()
	creator := NewCreator(spring.NewDomain(node, "coh"), vmm)
	if err := fsys.RegisterCreator(root, "coherency_creator", creator, naming.Root); err != nil {
		t.Fatal(err)
	}
	got, err := fsys.LookupCreator(root, "coherency_creator", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	layer, err := got.CreateFS(map[string]string{"name": "via-creator"})
	if err != nil {
		t.Fatal(err)
	}
	if layer.FSName() != "via-creator" {
		t.Errorf("FSName = %q", layer.FSName())
	}
}

func TestConvergenceAfterConcurrentWriters(t *testing.T) {
	// Torture: many cache managers race writes to ONE block; afterwards
	// every reader must observe the same final value (single-writer means
	// some write is last, and revocations make it visible everywhere).
	r := newSFS(t, true)
	f, err := r.coh.Create("converge", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetLength(vm.PageSize); err != nil {
		t.Fatal(err)
	}
	const clients = 6
	mappings := make([]*vm.Mapping, clients)
	for i := range mappings {
		vmm := vm.New(spring.NewDomain(r.node, "conv-vmm"), "conv-vmm")
		m, err := vmm.Map(f, vm.RightsWrite)
		if err != nil {
			t.Fatal(err)
		}
		mappings[i] = m
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			val := bytes.Repeat([]byte{byte('A' + c)}, 32)
			for i := 0; i < 25; i++ {
				if _, err := mappings[c].WriteAt(val, 0); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	// Every mapping must now read the same 32 bytes, and they must be one
	// client's value (no interleaving within the block write is possible
	// under MRSW because each WriteAt lands in one exclusive grant).
	first := make([]byte, 32)
	if _, err := mappings[0].ReadAt(first, 0); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(first); i++ {
		if first[i] != first[0] {
			t.Fatalf("torn write observed: %q", first)
		}
	}
	for c := 1; c < clients; c++ {
		got := make([]byte, 32)
		if _, err := mappings[c].ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, first) {
			t.Errorf("client %d diverged: %q vs %q", c, got, first)
		}
	}
}

// TestGrantRevokesReadersWithoutLowerPageIn: a whole-block overwrite needs
// the coherency action of a write fault and none of the data. VMM B holds
// block 0 read-only; VMM A overwrites blocks 0 and 1 whole. B is revoked,
// the layer fetches nothing from the disk layer — block 1 is never valid
// here until A's copy is absorbed — and B's next reads see A's bytes.
func TestGrantRevokesReadersWithoutLowerPageIn(t *testing.T) {
	r := newSFS(t, true)
	f, err := r.coh.Create("overwritten", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Repeat([]byte{0x11}, 2*vm.PageSize)
	if _, err := f.WriteAt(old, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := r.coh.DropDataCaches(); err != nil {
		t.Fatal(err)
	}
	vmmA := vm.New(spring.NewDomain(r.node, "vmmA"), "vmmA")
	vmmB := vm.New(spring.NewDomain(r.node, "vmmB"), "vmmB")
	mapA, err := vmmA.Map(f, vm.RightsWrite)
	if err != nil {
		t.Fatal(err)
	}
	mapB, err := vmmB.Map(f, vm.RightsWrite)
	if err != nil {
		t.Fatal(err)
	}
	mapB.Cache().SetReadAhead(-1) // keep block 1 out of B's first read
	got := make([]byte, vm.PageSize)
	if _, err := mapB.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if rights, ok := mapB.Cache().PageRights(0); !ok || rights != vm.RightsRead {
		t.Fatalf("B holds block 0 as %v (present=%v), want read-only", rights, ok)
	}
	lowerIns, grants := r.coh.LowerPageIns.Value(), grantsStat.Value()

	fresh := bytes.Repeat([]byte{0xA7}, 2*vm.PageSize)
	if _, err := mapA.WriteAt(fresh, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := mapB.Cache().PageRights(0); ok {
		t.Error("B still caches block 0 after A's whole-block overwrite")
	}
	if got := r.coh.LowerPageIns.Value() - lowerIns; got != 0 {
		t.Errorf("the overwrite made %d lower page-ins, want 0", got)
	}
	if got := grantsStat.Value() - grants; got != 1 {
		t.Errorf("coh.grants moved by %d, want 1 (one call for the run)", got)
	}
	if vmmA.PageIns.Value() != 0 {
		t.Errorf("A's VMM paged in %d times for a whole-block overwrite", vmmA.PageIns.Value())
	}
	cf := f.(*cohFile)
	b := cf.acquire(1)
	valid, writer := b.valid, b.hasWriter()
	cf.release(b)
	if valid || !writer {
		t.Errorf("block 1 at the layer: valid=%v writer=%v, want a writer and no copy", valid, writer)
	}

	for bn := int64(0); bn < 2; bn++ {
		if _, err := mapB.ReadAt(got, bn*vm.PageSize); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fresh[:vm.PageSize]) {
			t.Errorf("B read block %d: %#x..., want A's bytes", bn, got[0])
		}
	}
	if got := r.coh.LowerPageIns.Value() - lowerIns; got != 0 {
		t.Errorf("B's reads made %d lower page-ins; A's copy should have been absorbed", got)
	}
	if rights, _ := mapA.Cache().PageRights(1); rights != vm.RightsRead {
		t.Errorf("A holds block 1 as %v after B's read, want read-only", rights)
	}
}
