package springfs

import (
	"bytes"
	"path/filepath"
	"testing"

	"springfs/internal/cfs"
)

// buildSFS builds a spec of the one disk d on node and returns its SFS.
func buildSFS(t *testing.T, node *Node, d DiskSpec) *SFS {
	t.Helper()
	b, err := node.Build(Spec{Disks: []DiskSpec{d}})
	if err != nil {
		t.Fatal(err)
	}
	return b.Disks[d.Name]
}

func TestNodeQuickstart(t *testing.T) {
	node := NewNode("test")
	defer node.Stop()
	sfs := buildSFS(t, node, DiskSpec{Name: "sfs0a"})
	if err := WriteFile(sfs.Coherency, "hello.txt", []byte("hello, spring")); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(sfs.Coherency, "hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello, spring" {
		t.Errorf("ReadFile = %q", got)
	}
	// The file system is bound in the node's name space.
	obj, err := node.Root().Resolve("fs/sfs0a/hello.txt", Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := obj.(File); !ok {
		t.Errorf("resolved %T through the namespace", obj)
	}
}

func TestConfigureStackRecipe(t *testing.T) {
	// The full Section 4.4 recipe through the public API: look up a
	// creator from the well-known context, create an instance, stack it,
	// bind it in the name space.
	node := NewNode("test")
	defer node.Stop()
	sfs := buildSFS(t, node, DiskSpec{Name: "sfs0a"})
	layer, err := node.ConfigureStack("compfs_creator",
		map[string]string{"name": "compfs"}, []StackableFS{sfs.Coherency}, "compfs")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(layer, "doc", bytes.Repeat([]byte("compressible "), 1000)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(layer, "doc")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 13000 {
		t.Errorf("read %d bytes", len(got))
	}
	// And it is reachable by name.
	if _, err := node.Root().Resolve("compfs/doc", Root); err != nil {
		t.Errorf("namespace resolve: %v", err)
	}
}

// TestBuild assembles a three-layer stack from a Spec: every layer is
// reachable by name, the last one is the top, and data round-trips
// through it without reaching the disk in the clear; a second node
// mounting the same device reads the first node's files.
func TestBuild(t *testing.T) {
	node := NewNode("test")
	defer node.Stop()
	b, err := node.Build(Spec{
		Disks: []DiskSpec{{Name: "sfs0a"}},
		Layers: []LayerSpec{
			{Name: "crypt", Creator: "cryptfs_creator", On: []string{"sfs0a"}, Config: map[string]string{"passphrase": "hunter2"}},
			{Name: "comp", Creator: "compfs_creator", On: []string{"crypt"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	top := b.Top
	sfs := b.Disks["sfs0a"]
	if top != b.FS["comp"] || b.FS["crypt"].FSName() != "crypt" || b.FS["sfs0a"] != sfs.Coherency {
		t.Errorf("built %v, top %s", b.FS, top.FSName())
	}
	msg := bytes.Repeat([]byte("layered! "), 500)
	if err := WriteFile(top, "deep", msg); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(top, "deep")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Error("three-layer round trip failed")
	}
	if err := top.SyncFS(); err != nil {
		t.Fatal(err)
	}
	// The bottom sees neither plaintext nor COMPFS structure in the
	// clear.
	raw, err := ReadFile(b.FS["sfs0a"], "deep")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("layered!")) {
		t.Error("plaintext visible at the base layer")
	}

	if err := sfs.Disk.Unmount(); err != nil {
		t.Fatal(err)
	}
	node2 := NewNode("test2")
	defer node2.Stop()
	again := buildSFS(t, node2, DiskSpec{Name: "sfs0a", Device: sfs.Device})
	if got, err := ReadFile(again.Coherency, "deep"); err != nil || !bytes.Equal(got, raw) {
		t.Errorf("remounted device reads %d bytes, %v; want the %d the first node stored", len(got), err, len(raw))
	}
}

// TestBuildTop: the top is the last layer, or the last disk of a spec with
// no layers; an empty spec, a name used twice, an unknown On and a device
// given blocks or a path are refused.
func TestBuildTop(t *testing.T) {
	node := NewNode("test")
	defer node.Stop()
	b, err := node.Build(Spec{Disks: []DiskSpec{{Name: "d"}}, Layers: []LayerSpec{{Name: "id", Creator: "identity_creator", On: []string{"d"}}}})
	if err != nil {
		t.Fatal(err)
	}
	if b.Top != b.FS["id"] {
		t.Errorf("top is %s, want the last layer", b.Top.FSName())
	}
	if b, err = node.Build(Spec{Disks: []DiskSpec{{Name: "e1"}, {Name: "e2"}}}); err != nil {
		t.Fatal(err)
	}
	if b.Top != b.FS["e2"] {
		t.Errorf("top is %s, want the last disk", b.Top.FSName())
	}
	for _, bad := range []Spec{
		{},
		{Disks: []DiskSpec{{Name: "f"}}, Layers: []LayerSpec{{Name: "f", Creator: "identity_creator", On: []string{"f"}}}},
		{Disks: []DiskSpec{{Name: "g"}}, Layers: []LayerSpec{{Name: "id", Creator: "identity_creator", On: []string{"nope"}}}},
		{Disks: []DiskSpec{{Name: "h", Device: b.Disks["e1"].Device, Blocks: 4096}}},
		{Disks: []DiskSpec{{Name: "i", Device: b.Disks["e1"].Device, Path: filepath.Join(t.TempDir(), "img")}}},
	} {
		if _, err := node.Build(bad); err == nil {
			t.Errorf("Build(%+v) succeeded, want an error", bad)
		}
	}
}

func TestWatchHelper(t *testing.T) {
	node := NewNode("test")
	defer node.Stop()
	sfs := buildSFS(t, node, DiskSpec{Name: "sfs0a"})
	f, err := sfs.Coherency.Create("w", Root)
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	w := Watch(f, WatchdogHooks{Observe: func(op string) { ops = append(ops, op) }})
	if _, err := w.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 || ops[0] != "write" {
		t.Errorf("ops = %v", ops)
	}
}

// joinAndBuild builds spec on a fresh node that has joined network; the
// node stops when the test ends.
func joinAndBuild(t *testing.T, network *Network, name string, spec Spec) (*Node, *Built) {
	t.Helper()
	node := NewNode(name)
	t.Cleanup(node.Stop)
	node.Join(network)
	b, err := node.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return node, b
}

// exportSpec is an SFS named sfs0a with layers stacked on it in order, the
// last of them (or the SFS) served over DFS at address.
func exportSpec(address string, layers ...LayerSpec) Spec {
	top := "sfs0a"
	if len(layers) > 0 {
		top = layers[len(layers)-1].Name
	}
	return Spec{Disks: []DiskSpec{{Name: "sfs0a"}}, Layers: append(layers,
		LayerSpec{Name: "dfs", Creator: "dfs_creator", On: []string{top}, Config: map[string]string{"address": address}})}
}

// clientSpec is a machine with a DFS client of the server at address,
// behind the machine's CFS if withCFS.
func clientSpec(address string, withCFS bool) Spec {
	s := Spec{Layers: []LayerSpec{{Name: "remote", Creator: "dfs_client_creator", Config: map[string]string{"address": address}}}}
	if withCFS {
		s.Layers = append(s.Layers, LayerSpec{Name: "cfs", Creator: "cfs_creator", On: []string{"remote"}})
	}
	return s
}

func TestDFSThroughFacade(t *testing.T) {
	network := NewNetwork(LANInstant)
	_, home := joinAndBuild(t, network, "home", exportSpec("home:dfs"))
	_, remote := joinAndBuild(t, network, "remote", clientSpec("home:dfs", true))

	cached, err := remote.Top.Create("shared", Root)
	if err != nil {
		t.Fatal(err)
	}
	if n := remote.FS["cfs"].(*cfs.CFS).Interpositions.Value(); n != 1 {
		t.Errorf("CFS interposed on %d files, want 1", n)
	}
	if _, err := cached.WriteAt([]byte("via facade"), 0); err != nil {
		t.Fatal(err)
	}
	if err := cached.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(home.FS["sfs0a"], "shared")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "via facade" {
		t.Errorf("home sees %q", got)
	}
}

func TestSeparateDomainsSFS(t *testing.T) {
	node := NewNode("test")
	defer node.Stop()
	sfs := buildSFS(t, node, DiskSpec{Name: "split", SeparateDomains: true})
	if sfs.DiskDomain == sfs.CohDomain {
		t.Fatal("layers share a domain")
	}
	if err := WriteFile(sfs.Coherency, "x", []byte("cross-domain stack works")); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(sfs.Coherency, "x")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "cross-domain stack works" {
		t.Errorf("got %q", got)
	}
	// The open path crossed domains at least once.
	if sfs.DiskDomain.Invocations.Value() == 0 {
		t.Error("no invocations reached the disk layer's domain")
	}
}

func TestMirrorThroughFacade(t *testing.T) {
	node := NewNode("test")
	defer node.Stop()
	b, err := node.Build(Spec{
		Disks:  []DiskSpec{{Name: "sfs1"}, {Name: "sfs2"}},
		Layers: []LayerSpec{{Name: "mirror", Creator: "mirrorfs_creator", On: []string{"sfs1", "sfs2"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := b.Top
	if err := WriteFile(m, "r", []byte("both")); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sfs1", "sfs2"} {
		got, err := ReadFile(b.FS[name], "r")
		if err != nil || string(got) != "both" {
			t.Errorf("replica %s = %q, %v", name, got, err)
		}
	}
}
