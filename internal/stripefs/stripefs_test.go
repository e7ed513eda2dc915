package stripefs_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"springfs"
	"springfs/internal/fsys"
	"springfs/internal/mirrorfs"
	"springfs/internal/naming"
	"springfs/internal/stats"
	"springfs/internal/stripefs"
)

// rig is a striping layer over one metadata SFS and k data SFS instances,
// all on one node, with the underlying pieces exposed for white-box
// assertions (object placement, sweep debris).
type rig struct {
	node *springfs.Node
	st   *springfs.StripeFS
	meta springfs.StackableFS
	data []springfs.StackableFS
}

// sfss builds one 8192-block SFS per name on node and returns every
// exported file system by name.
func sfss(t *testing.T, node *springfs.Node, names ...string) map[string]springfs.StackableFS {
	t.Helper()
	var spec springfs.Spec
	for _, name := range names {
		spec.Disks = append(spec.Disks, springfs.DiskSpec{Name: name, Blocks: 8192})
	}
	b, err := node.Build(spec)
	if err != nil {
		t.Fatalf("SFS: %v", err)
	}
	return b.FS
}

func newRig(t *testing.T, k int, stripeSize int64) *rig { return newFaultyRig(t, k, stripeSize, nil) }

// newFaultyRig reaches data server i through a fault layer asking
// faults[i], where faults has one.
func newFaultyRig(t *testing.T, k int, stripeSize int64, faults map[int]func(op string) error) *rig {
	t.Helper()
	node := springfs.NewNode("stripe-test")
	t.Cleanup(node.Stop)
	names := []string{"meta"}
	for i := 0; i < k; i++ {
		names = append(names, fmt.Sprintf("data%d", i))
	}
	fs := sfss(t, node, names...)
	st, err := stripefs.New(node.NewDomain("stripe"), "stripe", stripefs.Options{StripeSize: stripeSize})
	if err != nil {
		t.Fatalf("stripefs.New: %v", err)
	}
	r := &rig{node: node, st: st, meta: fs["meta"]}
	for _, name := range names {
		under := fs[name]
		if fault, ok := faults[len(r.data)]; ok && name != "meta" {
			under = fsys.NewFaultFS("link-"+name, fault)
			if err := under.StackOn(fs[name]); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.StackOn(under); err != nil {
			t.Fatalf("StackOn %s: %v", name, err)
		}
		if name != "meta" {
			r.data = append(r.data, fs[name])
		}
	}
	return r
}

// linkDown fails every operation, as over a dead link, while down is set.
func linkDown(down *atomic.Bool) func(op string) error {
	return func(op string) error {
		if down.Load() {
			return fmt.Errorf("%s: link down: %w", op, fsys.ErrUnavailable)
		}
		return nil
	}
}

// objCount counts stripe objects on data server k.
func (r *rig) objCount(t *testing.T, k int) int {
	t.Helper()
	bindings, err := r.data[k].List(springfs.Root)
	if err != nil {
		t.Fatalf("listing data server %d: %v", k, err)
	}
	n := 0
	for _, b := range bindings {
		if strings.HasPrefix(b.Name, ".sobj-") {
			n++
		}
	}
	return n
}

// verify checks the striped file's full content and length against the
// reference model.
func verify(t *testing.T, f springfs.File, model []byte, context string) {
	t.Helper()
	attrs, err := f.Stat()
	if err != nil {
		t.Fatalf("%s: Stat: %v", context, err)
	}
	if attrs.Length != int64(len(model)) {
		t.Fatalf("%s: length %d, want %d", context, attrs.Length, len(model))
	}
	if len(model) == 0 {
		return
	}
	got := make([]byte, len(model))
	n, err := f.ReadAt(got, 0)
	if err != nil && !errors.Is(err, io.EOF) {
		t.Fatalf("%s: ReadAt: %v", context, err)
	}
	if n != len(model) {
		t.Fatalf("%s: read %d of %d bytes", context, n, len(model))
	}
	if !bytes.Equal(got, model) {
		for i := range model {
			if got[i] != model[i] {
				t.Fatalf("%s: content differs at byte %d (got %d, want %d)", context, i, got[i], model[i])
			}
		}
	}
}

// TestStripeBoundaryTorture drives a striped file through a deterministic
// random sequence of writes, truncates, and reads at stripe boundaries,
// exact multiples, and spanning offsets, checking every state against an
// in-memory reference model.
func TestStripeBoundaryTorture(t *testing.T) {
	const S = springfs.PageSize // smallest legal stripe: every op spans servers
	r := newRig(t, 3, S)
	f, err := r.st.Create("torture.bin", springfs.Root)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	var model []byte
	rng := rand.New(rand.NewSource(42))

	write := func(off int64, n int) {
		buf := make([]byte, n)
		rng.Read(buf)
		if _, err := f.WriteAt(buf, off); err != nil {
			t.Fatalf("WriteAt(%d, %d): %v", off, n, err)
		}
		if need := off + int64(n); need > int64(len(model)) {
			model = append(model, make([]byte, need-int64(len(model)))...)
		}
		copy(model[off:], buf)
	}
	truncate := func(n int64) {
		if err := f.SetLength(n); err != nil {
			t.Fatalf("SetLength(%d): %v", n, err)
		}
		if n <= int64(len(model)) {
			model = model[:n]
		} else {
			model = append(model, make([]byte, n-int64(len(model)))...)
		}
	}

	// Directed boundary cases first: exact multiples, straddles, holes.
	write(0, 1)
	write(S-1, 2)       // straddles stripe 0|1 (server 0|1)
	write(S, S)         // exactly stripe 1
	write(3*S-1, S+2)   // straddles two boundaries
	write(9*S, 100)     // sparse: hole spanning all three servers
	truncate(9*S + 50)  // shrink into the last write
	truncate(12 * S)    // grow: EOF lands on server (12-1)/1%3
	truncate(6*S + S/2) // shrink to mid-stripe
	truncate(6 * S)     // shrink to exact multiple
	write(6*S, 1)       // extend again right at the old EOF
	truncate(0)         // empty
	write(2*S+17, 3*S)  // re-grow with a leading hole
	verify(t, f, model, "directed cases")

	// Randomized soak around the same shapes.
	for i := 0; i < 120; i++ {
		switch rng.Intn(5) {
		case 0, 1: // write, biased toward boundary-adjacent offsets
			off := rng.Int63n(14 * S)
			if rng.Intn(2) == 0 {
				off = (off / S) * S // exact stripe multiple
				if rng.Intn(2) == 0 && off > 0 {
					off-- // one before the boundary
				}
			}
			write(off, 1+rng.Intn(3*S))
		case 2: // truncate
			truncate(rng.Int63n(14 * S))
		case 3: // partial read against the model
			if len(model) == 0 {
				continue
			}
			off := rng.Int63n(int64(len(model)))
			n := 1 + rng.Intn(2*S)
			got := make([]byte, n)
			rn, err := f.ReadAt(got, off)
			if err != nil && !errors.Is(err, io.EOF) {
				t.Fatalf("iter %d: ReadAt(%d, %d): %v", i, off, n, err)
			}
			want := len(model) - int(off)
			if want > n {
				want = n
			}
			if rn != want {
				t.Fatalf("iter %d: ReadAt(%d, %d) returned %d bytes, want %d", i, off, n, rn, want)
			}
			if !bytes.Equal(got[:rn], model[off:off+int64(rn)]) {
				t.Fatalf("iter %d: ReadAt(%d, %d) content mismatch", i, off, n)
			}
		case 4: // full verify
			verify(t, f, model, fmt.Sprintf("iter %d", i))
		}
	}
	verify(t, f, model, "final")
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

// TestStripeSparseHolesSpanServers checks that a file written only far
// into its range stores data solely on the EOF stripe's home server: the
// servers owning the hole hold no object at all, and the hole reads back
// as zeros.
func TestStripeSparseHolesSpanServers(t *testing.T) {
	const S = springfs.PageSize
	r := newRig(t, 3, S)
	f, err := r.st.Create("sparse.bin", springfs.Root)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// Stripe 7 lives on server 7%3 == 1.
	tail := []byte("tail-data")
	off := int64(7 * S)
	if _, err := f.WriteAt(tail, off); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if r.objCount(t, 0) != 0 || r.objCount(t, 2) != 0 {
		t.Fatalf("hole servers hold objects: %d/%d", r.objCount(t, 0), r.objCount(t, 2))
	}
	if r.objCount(t, 1) != 1 {
		t.Fatalf("EOF server object count: %d", r.objCount(t, 1))
	}
	model := make([]byte, off+int64(len(tail)))
	copy(model[off:], tail)
	verify(t, f, model, "sparse")
}

// TestStripeCreateOverExistingFails: like every layer's Create, a Create of
// a bound name fails and leaves the file as it was, so a file a Create
// returns is always empty (unixapi skips O_TRUNC on one).
func TestStripeCreateOverExistingFails(t *testing.T) {
	const S = springfs.PageSize
	r := newRig(t, 2, S)
	f, err := r.st.Create("once.bin", springfs.Root)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	data := bytes.Repeat([]byte{5}, 3*S)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if _, err := r.st.Create("once.bin", springfs.Root); !errors.Is(err, naming.ErrExists) {
		t.Fatalf("second Create: %v, want naming.ErrExists", err)
	}
	got, err := springfs.ReadFile(r.st, "once.bin")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("after the second Create the file reads %d bytes, %v; want the first Create's %d", len(got), err, len(data))
	}
}

// TestStripeUnlinkWhileOpen: a retained striped file survives Remove — its
// stripe objects drop their names but keep their storage behind the
// retained handles, including objects first created after the unlink.
func TestStripeUnlinkWhileOpen(t *testing.T) {
	const S = springfs.PageSize
	r := newRig(t, 3, S)
	f, err := r.st.Create("doomed.bin", springfs.Root)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := f.WriteAt([]byte("stripe zero"), 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	fsys.Retain(f)
	if err := r.st.Remove("doomed.bin", springfs.Root); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := r.st.Open("doomed.bin", springfs.Root); err == nil {
		t.Fatalf("Open after Remove succeeded")
	}
	for k := 0; k < 3; k++ {
		if n := r.objCount(t, k); n != 0 {
			t.Fatalf("server %d still lists %d objects after unlink", k, n)
		}
	}
	// The retained handle still reads...
	buf := make([]byte, 11)
	if _, err := f.ReadAt(buf, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatalf("ReadAt after unlink: %v", err)
	}
	if string(buf) != "stripe zero" {
		t.Fatalf("ReadAt after unlink: %q", buf)
	}
	// ...and writes, including into a stripe whose object did not exist at
	// unlink time (server 1): the object is created nameless.
	if _, err := f.WriteAt([]byte("stripe one"), S); err != nil {
		t.Fatalf("WriteAt after unlink: %v", err)
	}
	if n := r.objCount(t, 1); n != 0 {
		t.Fatalf("post-unlink object kept its name (%d listed)", n)
	}
	got := make([]byte, 10)
	if _, err := f.ReadAt(got, S); err != nil && !errors.Is(err, io.EOF) {
		t.Fatalf("ReadAt stripe one: %v", err)
	}
	if string(got) != "stripe one" {
		t.Fatalf("stripe one: %q", got)
	}
	if err := fsys.Release(f); err != nil {
		t.Fatalf("Release: %v", err)
	}
}

// TestStripeRenameOverRetained: rename onto an open destination keeps the
// destination's data alive behind its handles while the name now serves
// the renamed file's content.
func TestStripeRenameOverRetained(t *testing.T) {
	const S = springfs.PageSize
	r := newRig(t, 2, S)
	src, err := r.st.Create("src.bin", springfs.Root)
	if err != nil {
		t.Fatalf("Create src: %v", err)
	}
	if _, err := src.WriteAt([]byte("source"), 0); err != nil {
		t.Fatalf("write src: %v", err)
	}
	dst, err := r.st.Create("dst.bin", springfs.Root)
	if err != nil {
		t.Fatalf("Create dst: %v", err)
	}
	if _, err := dst.WriteAt([]byte("destination"), 0); err != nil {
		t.Fatalf("write dst: %v", err)
	}
	fsys.Retain(dst)
	if err := r.st.Rename("src.bin", "dst.bin", springfs.Root); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	content, err := springfs.ReadFile(r.st, "dst.bin")
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(content) != "source" {
		t.Fatalf("dst.bin now reads %q", content)
	}
	old := make([]byte, 11)
	if _, err := dst.ReadAt(old, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatalf("retained dest read: %v", err)
	}
	if string(old) != "destination" {
		t.Fatalf("retained dest reads %q", old)
	}
	if err := fsys.Release(dst); err != nil {
		t.Fatalf("Release: %v", err)
	}
}

// TestStripeSweepReclaimsDebris: a second striping instance mounted over
// the same volumes garbage-collects what a crashed commit left behind — a
// stale temporary layout on the metadata FS and an orphaned stripe object
// on a data server — while live files keep their objects.
func TestStripeSweepReclaimsDebris(t *testing.T) {
	const S = springfs.PageSize
	r := newRig(t, 2, S)
	f, err := r.st.Create("live.bin", springfs.Root)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{7}, 2*S), 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	// Fake a crashed create: a temporary layout and an unreferenced object.
	tmp, err := r.meta.Create(".stripe-tmp-00000000deadbeef", springfs.Root)
	if err != nil {
		t.Fatalf("debris tmp: %v", err)
	}
	if _, err := tmp.WriteAt([]byte("partial"), 0); err != nil {
		t.Fatalf("debris tmp write: %v", err)
	}
	if _, err := r.data[0].Create(".sobj-00000000deadbeef", springfs.Root); err != nil {
		t.Fatalf("debris object: %v", err)
	}

	// A fresh instance over the same volumes sweeps on first use.
	st2, err := stripefs.New(r.node.NewDomain("stripe2"), "stripe2", stripefs.Options{StripeSize: S})
	if err != nil {
		t.Fatalf("stripefs.New: %v", err)
	}
	if err := st2.StackOn(r.meta); err != nil {
		t.Fatalf("StackOn meta: %v", err)
	}
	for _, d := range r.data {
		if err := st2.StackOn(d); err != nil {
			t.Fatalf("StackOn data: %v", err)
		}
	}
	content, err := springfs.ReadFile(st2, "live.bin")
	if err != nil {
		t.Fatalf("ReadFile via new instance: %v", err)
	}
	if !bytes.Equal(content, bytes.Repeat([]byte{7}, 2*S)) {
		t.Fatalf("live.bin corrupted after sweep")
	}
	if _, err := r.meta.Resolve(".stripe-tmp-00000000deadbeef", springfs.Root); err == nil {
		t.Fatalf("stale temporary layout survived the sweep")
	}
	if _, err := r.data[0].Resolve(".sobj-00000000deadbeef", springfs.Root); err == nil {
		t.Fatalf("orphaned stripe object survived the sweep")
	}
	if n := r.objCount(t, 0) + r.objCount(t, 1); n != 2 {
		t.Fatalf("live objects after sweep: %d, want 2", n)
	}
}

// TestStripeReviveRearmsSweep: a data server that was out of the fan-out
// when the mount-time sweep ran is swept once it is revived, so the debris
// it holds does not stay forever.
func TestStripeReviveRearmsSweep(t *testing.T) {
	const S = springfs.PageSize
	const debris = ".sobj-00000000deadbeef"
	var down atomic.Bool // the link to data server 1
	r := newFaultyRig(t, 2, S, map[int]func(string) error{1: linkDown(&down)})
	swept := stats.Default.Counter("stripe.swept")
	// The link fails one SyncFS, which sweeps nothing, and server 1 leaves
	// the fan-out before any sweep ran; the link is up again from here on.
	down.Store(true)
	if err := r.st.SyncFS(); err == nil {
		t.Fatalf("SyncFS over a dead link succeeded")
	}
	down.Store(false)
	if r.st.Health()[1] {
		t.Fatalf("server 1 still in the fan-out after its SyncFS failed")
	}
	if _, err := r.data[1].Create(debris, springfs.Root); err != nil {
		t.Fatalf("debris object: %v", err)
	}
	f, err := r.st.Create("live.bin", springfs.Root)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{7}, S), 0); err != nil {
		t.Fatalf("write to the healthy server's stripe: %v", err)
	}
	if _, err := r.data[1].Resolve(debris, springfs.Root); err != nil {
		t.Fatalf("the first sweep reached a server that is out of the fan-out: %v", err)
	}

	before := swept.Value()
	r.st.Revive(1)
	if _, err := f.WriteAt(bytes.Repeat([]byte{9}, S), S); err != nil {
		t.Fatalf("write to the revived server's stripe: %v", err)
	}
	if _, err := r.st.Resolve("live.bin", springfs.Root); err != nil {
		t.Fatalf("Resolve after revive: %v", err)
	}
	if _, err := r.data[1].Resolve(debris, springfs.Root); err == nil {
		t.Errorf("debris on the revived server survived the next operation's sweep")
	}
	if got := swept.Value() - before; got != 1 {
		t.Errorf("stripe.swept moved by %d after the revive, want 1", got)
	}
	if n := r.objCount(t, 0) + r.objCount(t, 1); n != 2 {
		t.Errorf("live objects after the revive sweep: %d, want 2", n)
	}
	verify(t, f, append(bytes.Repeat([]byte{7}, S), bytes.Repeat([]byte{9}, S)...), "after revive sweep")
}

// TestStripeConcurrentDisjointStripes: writers on disjoint stripes never
// contend on one whole-file token; under -race this also proves the
// fan-out machinery is data-race free.
func TestStripeConcurrentDisjointStripes(t *testing.T) {
	const S = springfs.PageSize
	const writers = 6
	r := newRig(t, 3, S)
	f, err := r.st.Create("parallel.bin", springfs.Root)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pat := bytes.Repeat([]byte{byte('A' + w)}, S)
			off := int64(w) * S
			for i := 0; i < 20; i++ {
				if _, err := f.WriteAt(pat, off); err != nil {
					errs[w] = err
					return
				}
				got := make([]byte, S)
				if _, err := f.ReadAt(got, off); err != nil && !errors.Is(err, io.EOF) {
					errs[w] = err
					return
				}
				if !bytes.Equal(got, pat) {
					errs[w] = fmt.Errorf("writer %d: stripe corrupted", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	model := make([]byte, writers*S)
	for w := 0; w < writers; w++ {
		copy(model[w*S:], bytes.Repeat([]byte{byte('A' + w)}, S))
	}
	verify(t, f, model, "after concurrent writers")
}

// dfsRig builds a striping layer whose data servers are DFS exports, each
// on its own simulated network so one server can be partitioned alone.
type dfsRig struct {
	st   *springfs.StripeFS
	nets []*springfs.Network
}

func newDFSRig(t *testing.T, k int, stripeSize int64) *dfsRig {
	t.Helper()
	client := springfs.NewNode("stripe-client")
	t.Cleanup(client.Stop)
	r := &dfsRig{}
	spec := springfs.Spec{Disks: []springfs.DiskSpec{{Name: "meta", Blocks: 8192}}}
	on := []string{"meta"}
	for i := 0; i < k; i++ {
		network := springfs.NewNetwork(springfs.LANInstant)
		r.nets = append(r.nets, network)
		client.Join(network)
		server := springfs.NewNode(fmt.Sprintf("stripe-srv%d", i))
		t.Cleanup(server.Stop)
		server.Join(network)
		addr, store, remote := fmt.Sprintf("srv%d:dfs", i), fmt.Sprintf("store%d", i), fmt.Sprintf("remote%d", i)
		if _, err := server.Build(springfs.Spec{
			Disks: []springfs.DiskSpec{{Name: store, Blocks: 8192}},
			Layers: []springfs.LayerSpec{{Name: fmt.Sprintf("dfs%d", i), Creator: "dfs_creator", On: []string{store},
				Config: map[string]string{"address": addr}}},
		}); err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
		spec.Layers = append(spec.Layers, springfs.LayerSpec{Name: remote, Creator: "dfs_client_creator",
			Config: map[string]string{"address": addr}})
		on = append(on, remote)
	}
	spec.Layers = append(spec.Layers, springfs.LayerSpec{Name: "stripe", Creator: "stripefs_creator", On: on,
		Config: map[string]string{"stripe_size": fmt.Sprint(stripeSize)}})
	b, err := client.Build(spec)
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	r.st = b.Top.(*springfs.StripeFS)
	return r
}

// TestStripeServerLossDegradesOnlyItsStripes: partitioning one data server
// mid-workload fails only the stripes it owns; the other stripes keep
// reading and writing, and after the partition heals Revive restores full
// service.
func TestStripeServerLossDegradesOnlyItsStripes(t *testing.T) {
	const S = springfs.PageSize
	r := newDFSRig(t, 3, S)
	f, err := r.st.Create("survivor.bin", springfs.Root)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	model := make([]byte, 6*S)
	rand.New(rand.NewSource(7)).Read(model)
	if _, err := f.WriteAt(model, 0); err != nil {
		t.Fatalf("initial write: %v", err)
	}

	// Sever data server 1: stripes 1 and 4 are now unreachable.
	r.nets[1].Partition(true)

	if _, err := f.WriteAt([]byte("dead"), S); err == nil {
		t.Fatalf("write to a partitioned server's stripe succeeded")
	} else if !errors.Is(err, fsys.ErrUnavailable) {
		t.Fatalf("write to dead stripe: %v (want ErrUnavailable)", err)
	}
	health := r.st.Health()
	if health[1] {
		t.Fatalf("server 1 still in the fan-out after a dead call")
	}
	if !health[0] || !health[2] {
		t.Fatalf("healthy servers were indicted: %v", health)
	}

	// Stripes on the surviving servers still write and read.
	patch := bytes.Repeat([]byte{0xEE}, S)
	if _, err := f.WriteAt(patch, 0); err != nil {
		t.Fatalf("write to healthy stripe during degradation: %v", err)
	}
	copy(model[0:], patch)
	got := make([]byte, S)
	if _, err := f.ReadAt(got, 2*S); err != nil && !errors.Is(err, io.EOF) {
		t.Fatalf("read of healthy stripe during degradation: %v", err)
	}
	if !bytes.Equal(got, model[2*S:3*S]) {
		t.Fatalf("healthy stripe corrupted during degradation")
	}
	// The dead server's stripes fail fast (no further RPC is attempted).
	if _, err := f.ReadAt(got, S); err == nil {
		t.Fatalf("read of dead stripe succeeded")
	}

	// Heal the link; the operator revives the server; everything works.
	r.nets[1].Partition(false)
	r.st.Revive(1)
	verify(t, f, model, "after revive")
	if _, err := f.WriteAt([]byte("back"), S); err != nil {
		t.Fatalf("write after revive: %v", err)
	}
	copy(model[S:], "back")
	verify(t, f, model, "after post-revive write")
}

// TestStripeOverMirrorFailover: a data server that is itself a mirroring
// layer gives per-stripe failover below the striping layer — losing one
// replica degrades the mirror, not the stripe.
func TestStripeOverMirrorFailover(t *testing.T) {
	const S = springfs.PageSize
	node := springfs.NewNode("stripe-mirror-test")
	defer node.Stop()
	fs := sfss(t, node, "meta", "m1", "m2", "data1")
	var down atomic.Bool // the link to the mirror's primary replica
	link := fsys.NewFaultFS("link-m1", linkDown(&down))
	if err := link.StackOn(fs["m1"]); err != nil {
		t.Fatal(err)
	}
	mirror := mirrorfs.New(node.NewDomain("mirror"), "mirror")
	if err := mirror.StackOn(link); err != nil {
		t.Fatalf("mirror StackOn: %v", err)
	}
	if err := mirror.StackOn(fs["m2"]); err != nil {
		t.Fatalf("mirror StackOn: %v", err)
	}
	st, err := stripefs.New(node.NewDomain("stripe"), "stripe", stripefs.Options{StripeSize: S})
	if err != nil {
		t.Fatalf("stripefs.New: %v", err)
	}
	for _, under := range []springfs.StackableFS{fs["meta"], mirror, fs["data1"]} {
		if err := st.StackOn(under); err != nil {
			t.Fatalf("StackOn: %v", err)
		}
	}
	f, err := st.Create("mirrored.bin", springfs.Root)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	model := make([]byte, 4*S)
	rand.New(rand.NewSource(11)).Read(model)
	if _, err := f.WriteAt(model, 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	// Lose the mirror's primary replica: stripes 0 and 2 (server 0) keep
	// working through the mirror's failover; the striping layer never sees
	// a failure.
	down.Store(true)
	patch := bytes.Repeat([]byte{0x5A}, S)
	if _, err := f.WriteAt(patch, 2*S); err != nil {
		t.Fatalf("write to mirrored stripe with dead primary: %v", err)
	}
	copy(model[2*S:], patch)
	verify(t, f, model, "with dead mirror primary")
	for i, ok := range st.Health() {
		if !ok {
			t.Fatalf("stripe server %d left the fan-out; the mirror should have absorbed the fault", i)
		}
	}
	down.Store(false)
	if err := mirror.Resync(naming.Root); err != nil {
		t.Fatalf("mirror Resync: %v", err)
	}
	verify(t, f, model, "after mirror resync")
}
