package springfs

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"springfs/internal/dfs"
	"springfs/internal/naming"
	"springfs/internal/vm"
)

// TestFigure9WalkThrough reproduces the Section 4.5 walk-through: DFS
// stacked on COMPFS stacked on SFS. A name lookup arrives through the
// private DFS protocol and resolves down the stack; a remote read request
// results in DFS issuing a page-in, COMPFS uncompressing, SFS reading the
// disk, and DFS sending the data back through the protocol. The test
// verifies each step by its observable side effects.
func TestFigure9WalkThrough(t *testing.T) {
	network := NewNetwork(LANInstant)
	// Build the stack: dfs -> compfs -> sfs (coherency -> disk).
	_, hb := joinAndBuild(t, network, "home", exportSpec("home:dfs", LayerSpec{Name: "compfs", Creator: "compfs_creator", On: []string{"sfs0a"}}))
	sfs, comp, srv := hb.Disks["sfs0a"], hb.FS["compfs"], hb.FS["dfs"].(*dfs.Server)

	corpus := []byte(strings.Repeat("walk-through payload ", 1000))
	if err := WriteFile(comp, "file", corpus); err != nil {
		t.Fatal(err)
	}
	if err := comp.SyncFS(); err != nil {
		t.Fatal(err)
	}
	// Make the home caches cold so the remote read demonstrably reaches
	// the disk.
	if err := hb.DropCaches(); err != nil {
		t.Fatal(err)
	}

	// The remote machine runs CFS over its DFS client.
	remote, rb := joinAndBuild(t, network, "remote", clientSpec("home:dfs", true))

	// Step 1: "a name lookup arrives through the private DFS protocol;
	// DFS resolves the file in its underlying file system; COMPFS in turn
	// resolves the file in SFS."
	f, err := rb.Top.Open("file", Root)
	if err != nil {
		t.Fatalf("remote lookup: %v", err)
	}
	if srv.RemoteOps.Value() == 0 {
		t.Error("lookup did not travel the protocol")
	}

	// Step 2: a remote read pages the data up through every layer.
	reads0, _ := sfs.Device.IOCount()
	lowerPageIns0 := sfs.Coherency.LowerPageIns.Value()

	m, err := remote.VMM().Map(f, RightsRead)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	if _, err := m.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, corpus[:64]) {
		t.Errorf("remote mapped read = %q", got[:21])
	}

	// SFS read the disk...
	reads1, _ := sfs.Device.IOCount()
	if reads1 == reads0 {
		t.Error("the read never reached the disk")
	}
	// ...through the coherency layer's connection to the disk layer...
	if sfs.Coherency.LowerPageIns.Value() == lowerPageIns0 {
		t.Error("the read bypassed the coherency layer's lower connection")
	}
	// ...COMPFS uncompressed (the data differs from the on-disk bytes)...
	lower, err := sfs.Coherency.Open("file", Root)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 64)
	if _, err := lower.ReadAt(raw, 4096); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("walk-through")) {
		t.Error("underlying file holds plaintext; COMPFS did not transform")
	}
	// ...and the data crossed the network.
	if network.Bytes.Value() == 0 {
		t.Error("no network traffic recorded")
	}

	// Step 3: "at any point the underlying data may be accessed through
	// file_COMP or (uncompressed) through file_SFS; all such accesses will
	// be coherent with each other and with remote DFS clients." Write
	// locally through COMPFS and observe remotely.
	update := []byte(strings.ToUpper(string(corpus[:64])))
	if err := WriteFile(comp, "file", update); err != nil {
		t.Fatal(err)
	}
	got2 := make([]byte, 21)
	if _, err := m.ReadAt(got2, 0); err != nil {
		t.Fatal(err)
	}
	if string(got2) != "WALK-THROUGH PAYLOAD " {
		t.Errorf("remote read after local write = %q", got2)
	}
}

// TestFigure10SFS verifies the Spring SFS structure: the coherency layer
// stacked on the disk layer, with all files exported via the coherency
// layer, in both domain placements; and that the two-domain placement
// actually routes layer traffic across domains.
func TestFigure10SFS(t *testing.T) {
	for _, separate := range []bool{false, true} {
		name := map[bool]string{false: "one domain", true: "two domains"}[separate]
		t.Run(name, func(t *testing.T) {
			node := NewNode("fig10")
			defer node.Stop()
			sfs := buildSFS(t, node, DiskSpec{Name: "sfs0a", SeparateDomains: separate})
			// The exported layer is the coherency layer.
			if obj, err := node.Root().Resolve("fs/sfs0a", Root); err != nil || obj != naming.Object(sfs.Coherency) {
				t.Errorf("fs/sfs0a resolves to %T, %v", obj, err)
			}
			if err := WriteFile(sfs.Coherency, "f", []byte("via coherency layer")); err != nil {
				t.Fatal(err)
			}
			if err := sfs.Coherency.SyncFS(); err != nil {
				t.Fatal(err)
			}
			got, err := ReadFile(sfs.Coherency, "f")
			if err != nil || string(got) != "via coherency layer" {
				t.Fatalf("round trip = %q, %v", got, err)
			}
			if separate {
				if sfs.DiskDomain == sfs.CohDomain {
					t.Fatal("domains not separated")
				}
				if sfs.DiskDomain.Invocations.Value() == 0 {
					t.Error("no invocations crossed into the disk layer's domain")
				}
			} else if sfs.DiskDomain != sfs.CohDomain {
				t.Fatal("domains unexpectedly separated")
			}
		})
	}
}

// TestDeepStackPersistence drives a four-layer stack (compfs -> cryptfs ->
// coherency -> disk) through writes, a simulated shutdown (sync +
// remount), and verifies the data survives and remains transformed on
// disk.
func TestDeepStackPersistence(t *testing.T) {
	node := NewNode("deep")
	defer node.Stop()
	sfs := buildSFS(t, node, DiskSpec{Name: "sfs0a"})
	crypt := layerOn(t, node, "cryptfs_creator", map[string]string{"name": "crypt", "passphrase": "deep-secret"}, sfs.Coherency)
	top := layerOn(t, node, "compfs_creator", map[string]string{"name": "comp"}, crypt)
	payload := []byte(strings.Repeat("deep stack data ", 2000))
	if err := WriteFile(top, "payload", payload); err != nil {
		t.Fatal(err)
	}
	if err := top.SyncFS(); err != nil {
		t.Fatal(err)
	}
	if err := sfs.Disk.Unmount(); err != nil {
		t.Fatal(err)
	}

	// "Reboot": a fresh node over the same device, same stack, same key.
	node2 := NewNode("deep2")
	defer node2.Stop()
	sfs2 := buildSFS(t, node2, DiskSpec{Name: "sfs0a", Device: sfs.Device})
	crypt2 := layerOn(t, node2, "cryptfs_creator", map[string]string{"name": "crypt", "passphrase": "deep-secret"}, sfs2.Coherency)
	top2 := layerOn(t, node2, "compfs_creator", map[string]string{"name": "comp"}, crypt2)
	got, err := ReadFile(top2, "payload")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("payload corrupted across remount")
	}
	// The base layer holds neither plaintext nor a valid COMPFS image in
	// the clear (it is encrypted).
	raw, err := ReadFile(sfs2.Coherency, "payload")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("deep stack")) {
		t.Error("plaintext on the base layer")
	}
	// With the wrong key, the stack cannot make sense of the data.
	wrongKey := layerOn(t, node2, "cryptfs_creator", map[string]string{"name": "crypt-bad", "passphrase": "not-the-secret"}, sfs2.Coherency)
	compBad := layerOn(t, node2, "compfs_creator", map[string]string{"name": "comp-bad"}, wrongKey)
	if data, err := ReadFile(compBad, "payload"); err == nil && bytes.Equal(data, payload) {
		t.Error("wrong key read the correct payload")
	}
}

// TestNamespaceArrangement exercises the administrative flexibility of
// Figure 3: the same layers exposed (or hidden) by binding choices in the
// name space.
func TestNamespaceArrangement(t *testing.T) {
	node := NewNode("ns")
	defer node.Stop()
	sfs := buildSFS(t, node, DiskSpec{Name: "sfs0a"})
	// A compression layer stacked but deliberately NOT exported: clients
	// can reach the base but not the layer.
	hidden := layerOn(t, node, "compfs_creator", map[string]string{"name": "hidden-comp"}, sfs.Coherency)
	if _, err := node.Root().Resolve("hidden-comp", Root); err == nil {
		t.Error("unexported layer is visible in the name space")
	}
	// Export it under two different names: both resolve to the same
	// instance.
	if err := node.Root().Bind("compA", hidden, Root); err != nil {
		t.Fatal(err)
	}
	if err := node.Root().Bind("compB", hidden, Root); err != nil {
		t.Fatal(err)
	}
	a, err := node.Root().Resolve("compA", Root)
	if err != nil {
		t.Fatal(err)
	}
	bObj, err := node.Root().Resolve("compB", Root)
	if err != nil {
		t.Fatal(err)
	}
	if a != bObj {
		t.Error("two bindings of one layer resolve differently")
	}
	// Unbinding one name keeps the other working.
	if err := node.Root().Unbind("compA", Root); err != nil {
		t.Fatal(err)
	}
	if _, err := node.Root().Resolve("compB", Root); err != nil {
		t.Error("second binding broken by unbinding the first")
	}
}

// TestEvictionThroughStack verifies memory pressure at the VMM composes
// with the coherency protocol: with a tiny page budget, a working set
// larger than memory still reads/writes correctly (dirty pages are paged
// out to the coherency layer and refaulted).
func TestEvictionThroughStack(t *testing.T) {
	node := NewNode("evict")
	defer node.Stop()
	node.VMM().SetMaxPages(8)
	sfs := buildSFS(t, node, DiskSpec{Name: "sfs0a"})
	f, err := sfs.Coherency.Create("big", Root)
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 64
	buf := make([]byte, vm.PageSize)
	for i := int64(0); i < blocks; i++ {
		buf[0] = byte(i)
		if _, err := f.WriteAt(buf, i*vm.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if got := node.VMM().ResidentPages(); got > 8 {
		t.Errorf("resident pages = %d, want <= 8", got)
	}
	if node.VMM().Evictions.Value() == 0 {
		t.Error("no evictions under memory pressure")
	}
	for i := int64(0); i < blocks; i++ {
		if _, err := f.ReadAt(buf, i*vm.PageSize); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if buf[0] != byte(i) {
			t.Fatalf("block %d = %d after eviction", i, buf[0])
		}
	}
}

// TestPerUserNamespaces exercises the Section 3.2 properties end to end:
// all domains share part of their name space, each can customise its own
// view, and exposure of a file system is an ACL-guarded administrative
// decision.
func TestPerUserNamespaces(t *testing.T) {
	node := NewNode("users")
	defer node.Stop()
	sfs := buildSFS(t, node, DiskSpec{Name: "shared-sfs"})

	alice := node.NewUserNamespace()
	bob := node.NewUserNamespace()

	// Shared part: both see /fs/shared-sfs from the node root.
	for i, ns := range []Context{alice, bob} {
		if _, err := ns.Resolve("fs/shared-sfs", Root); err != nil {
			t.Errorf("user %d cannot see the shared file system: %v", i, err)
		}
	}

	// Customisation: alice binds her own compression layer at /mine;
	// bob's view is unaffected.
	comp := layerOn(t, node, "compfs_creator", map[string]string{"name": "alice-comp"}, sfs.Coherency)
	if err := alice.Bind("mine", comp, Root); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Resolve("mine", Root); err != nil {
		t.Errorf("alice cannot see her binding: %v", err)
	}
	if _, err := bob.Resolve("mine", Root); err == nil {
		t.Error("bob sees alice's private binding")
	}

	// Shadowing: alice overlays /fs with her own context; bob still gets
	// the shared one.
	private := naming.NewContext()
	if err := alice.Bind("fs", private, Root); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Resolve("fs/shared-sfs", Root); err == nil {
		t.Error("alice's shadowed /fs still resolves the shared binding")
	}
	if _, err := bob.Resolve("fs/shared-sfs", Root); err != nil {
		t.Errorf("bob lost the shared binding: %v", err)
	}

	// ACL-guarded export: only carol may resolve through the guarded
	// context.
	guarded, err := node.ExportTo("secret-fs", sfs.Coherency, "carol")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := guarded.Resolve("secret-fs", Credential("carol")); err != nil {
		t.Errorf("carol denied: %v", err)
	}
	if _, err := guarded.Resolve("secret-fs", Credential("mallory")); err == nil {
		t.Error("mallory resolved through the guarded context")
	}
}

// TestArbitraryStackCompositions assembles every ordering of the
// transforming layers over SFS and round-trips data through each — the
// composability promise of the architecture.
func TestArbitraryStackCompositions(t *testing.T) {
	perms := [][]string{
		{"comp"}, {"crypt"}, {"comp", "crypt"}, {"crypt", "comp"},
		{"crypt", "comp", "coh"}, {"comp", "crypt", "coh"},
	}
	payload := []byte(strings.Repeat("compose all the layers ", 800))
	for _, perm := range perms {
		name := strings.Join(perm, "-")
		t.Run(name, func(t *testing.T) {
			node := NewNode("compose")
			defer node.Stop()
			sfs := buildSFS(t, node, DiskSpec{Name: "sfs0a"})
			var top StackableFS = sfs.Coherency
			for _, l := range perm {
				creator := map[string]string{"comp": "compfs_creator", "crypt": "cryptfs_creator", "coh": "coherency_creator"}[l]
				top = layerOn(t, node, creator, map[string]string{"name": l + "-" + name, "passphrase": "key-" + name}, top)
			}
			if err := WriteFile(top, "data", payload); err != nil {
				t.Fatal(err)
			}
			if err := top.SyncFS(); err != nil {
				t.Fatal(err)
			}
			got, err := ReadFile(top, "data")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Error("round trip failed")
			}
			// Transforming stacks must not leak plaintext to the base.
			raw, err := ReadFile(sfs.Coherency, "data")
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(raw, []byte("compose all")) {
				t.Error("plaintext at the base layer")
			}
		})
	}
}

// layerOn stacks a fresh layer made by the named creator on under, in order.
func layerOn(t *testing.T, n *Node, creator string, config map[string]string, under ...StackableFS) StackableFS {
	t.Helper()
	layer, err := n.ConfigureStack(creator, config, under, "")
	if err != nil {
		t.Fatal(err)
	}
	return layer
}

// TestCoherencyOverCryptfsKeepsWrites: a generic coherency layer over
// cryptfs (the stack cryptfs's package comment recommends) writes its
// blocks through before its write-behind length. The bytes must survive a
// sync and a cold read, not come back as the zero fill of a file whose
// blocks a page-out trimmed away.
func TestCoherencyOverCryptfsKeepsWrites(t *testing.T) {
	node := NewNode("coh-crypt")
	defer node.Stop()
	b, err := node.Build(Spec{
		Disks: []DiskSpec{{Name: "sfs"}},
		Layers: []LayerSpec{
			{Name: "crypt", Creator: "cryptfs_creator", On: []string{"sfs"}, Config: map[string]string{"passphrase": "k"}},
			{Name: "coh", Creator: "coherency_creator", On: []string{"crypt"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("coherent ciphertext "), 37864/20+1)[:37864]
	for _, sync := range []string{"Sync", "SyncFS"} {
		t.Run(sync, func(t *testing.T) {
			f, err := b.Top.Create("f-"+sync, Root)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(want, 0); err != nil {
				t.Fatal(err)
			}
			if sync == "Sync" {
				err = f.Sync()
			} else {
				err = b.Top.SyncFS()
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := b.DropCaches(); err != nil {
				t.Fatal(err)
			}
			got, err := ReadFile(b.Top, "f-"+sync)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("read %d bytes, first %q; want %d bytes of %q", len(got), got[:min(len(got), 20)], len(want), want[:20])
			}
		})
	}
}

// TestCoherencyShrinkClearsItsOwnCache: a coherency layer that is not
// directly on a disk layer holds blocks the layer below never saw, so the
// storage owner's purge cannot reach them; truncated bytes must still read
// as zeros after the file is extended again, synced first or not.
func TestCoherencyShrinkClearsItsOwnCache(t *testing.T) {
	node := NewNode("coh-shrink")
	defer node.Stop()
	b, err := node.Build(Spec{
		Disks:  []DiskSpec{{Name: "sfs"}},
		Layers: []LayerSpec{{Name: "coh", Creator: "coherency_creator", On: []string{"sfs"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, synced := range []bool{false, true} {
		name := fmt.Sprintf("synced=%v", synced)
		t.Run(name, func(t *testing.T) {
			f, err := b.Top.Create(name, Root)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(bytes.Repeat([]byte{'H'}, 8192), 0); err != nil {
				t.Fatal(err)
			}
			if synced {
				if err := f.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.SetLength(100); err != nil {
				t.Fatal(err)
			}
			if err := f.SetLength(8192); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 8192)
			if _, err := f.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if i := bytes.IndexFunc(got[100:], func(r rune) bool { return r != 0 }); i >= 0 {
				t.Fatalf("byte %d reads %#x after truncating to 100, want 0", 100+i, got[100+i])
			}
		})
	}
}
