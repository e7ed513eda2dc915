package conformance

import (
	"fmt"
	"strings"

	"springfs"
	"springfs/internal/naming"
	"springfs/internal/snapfs"
	"springfs/internal/unixapi"
)

// StackNames lists the shapes BuildStack knows, in the order the suite
// normally runs them.
var StackNames = []string{"disk", "sfs-compfs", "sfs-cryptfs", "mirror", "dfs-remote", "dfs-cfs", "dfs-mixed", "sfs-snapfs", "sfs-snapfs-clone", "sfs-stripe",
	"stripe-mirror", "sfs-passthrough", "sfs-cryptfs-coherent", "crypt-comp-mirror", "sfs-stripe-compfs", "sfs-mirror-snapfs"}

// The stripe is kept small (4 pages) so the suite's ordinary file sizes
// straddle stripe and server boundaries.
var (
	smallStripe = map[string]string{"stripe_size": fmt.Sprint(4 * springfs.PageSize)}
	passphrase  = map[string]string{"passphrase": "conformance-passphrase"}
	oneSFS      = []string{"sfs"}
	stripeSFSs  = []string{"meta", "data0", "data1", "data2"}
)

// specs are the shapes that are nothing but a stack description.
var specs = map[string]springfs.Spec{
	// COMPFS (coherent mode) on SFS.
	"sfs-compfs":  spec(8192, oneSFS, layer("compfs_creator", nil, "sfs")),
	"sfs-cryptfs": spec(8192, oneSFS, layer("cryptfs_creator", passphrase, "sfs")),
	// The mirroring layer over two SFS instances (fs4 of Figure 3).
	"mirror": spec(8192, []string{"sfs1", "sfs2"}, layer("mirrorfs_creator", nil, "sfs1", "sfs2")),
	// The COW snapshot layer (main line) on SFS.
	"sfs-snapfs": spec(16384, oneSFS, layer("snapfs_creator", nil, "sfs")),
	// The striping layer over one metadata SFS and three data SFS instances.
	"sfs-stripe": spec(8192, stripeSFSs, layer("stripefs_creator", smallStripe, stripeSFSs...)),
	// Striping where data server 0 is itself a mirroring layer over two SFS
	// instances: per-stripe failover below the striping layer.
	"stripe-mirror": spec(8192, []string{"meta", "m1", "m2", "data1"},
		layer("mirrorfs_creator", nil, "m1", "m2"), layer("stripefs_creator", smallStripe, "meta", "mirrorfs", "data1")),
	// The identity layer: the layer kit (fsys.Passthrough) with no
	// transform of its own.
	"sfs-passthrough": spec(8192, oneSFS, layer("identity_creator", nil, "sfs")),
	// The generic coherency layer on a non-coherent transforming layer
	// (Section 6.3): the stack cryptfs's package comment recommends.
	"sfs-cryptfs-coherent": spec(8192, oneSFS, layer("cryptfs_creator", passphrase, "sfs"), layer("coherency_creator", nil, "cryptfs")),
	// stackctl's example stack.
	"crypt-comp-mirror": spec(8192, []string{"sfs0a", "sfs0b"}, layer("cryptfs_creator", passphrase, "sfs0a"),
		layer("compfs_creator", nil, "cryptfs"), layer("mirrorfs_creator", nil, "compfs", "sfs0b")),
	"sfs-stripe-compfs": spec(8192, stripeSFSs, layer("stripefs_creator", smallStripe, stripeSFSs...), layer("compfs_creator", nil, "stripefs")),
	"sfs-mirror-snapfs": spec(16384, []string{"sfs1", "sfs2"}, layer("mirrorfs_creator", nil, "sfs1", "sfs2"), layer("snapfs_creator", nil, "mirrorfs")),
}

// The remote shapes: a home node exports an SFS over DFS at homeAddress,
// and a process runs on a machine of its own that builds a client spec on
// the same network, so the suite exercises cross-machine semantics (unlink
// on one machine against an open descriptor on another, appends racing
// across the network).
const homeAddress = "home:dfs"

var (
	exported   = spec(8192, oneSFS, layer("dfs_creator", map[string]string{"address": homeAddress}, "sfs"))
	dfsClient  = springfs.Spec{Layers: []springfs.LayerSpec{layer("dfs_client_creator", map[string]string{"address": homeAddress})}}
	cfsMachine = springfs.Spec{Layers: append(dfsClient.Layers, layer("cfs_creator", nil, "dfs_client"))}
)

// remotes are what a remote shape's client machines build: plain DFS
// clients, where every file operation goes home, or CFS on each client
// (the Figure 9 path). In dfs-mixed, processes alternate between the home
// node, over its SFS, and remote machines, starting at home: local binds
// must stay coherent with remote caching (Figure 7).
var remotes = map[string]springfs.Spec{"dfs-remote": dfsClient, "dfs-cfs": cfsMachine, "dfs-mixed": cfsMachine}

// spec describes the layers, in order, over one SFS of the given size per
// disk name.
func spec(blocks int64, disks []string, layers ...springfs.LayerSpec) springfs.Spec {
	s := springfs.Spec{Layers: layers}
	for _, name := range disks {
		s.Disks = append(s.Disks, springfs.DiskSpec{Name: name, Blocks: blocks})
	}
	return s
}

// layer describes the layer creator makes, named after its type.
func layer(creator string, config map[string]string, on ...string) springfs.LayerSpec {
	return springfs.LayerSpec{Name: strings.TrimSuffix(creator, "_creator"), Creator: creator, On: on, Config: config}
}

// BuildStack assembles one named stack shape on fresh simulated hardware.
// It owns the node's lifetime until the stack is built: whatever error stops
// the build stops the node too.
func BuildStack(name string) (*Stack, error) {
	build := map[string]func(*springfs.Node) (*Stack, error){
		"disk":             newDiskStack,
		"sfs-snapfs-clone": newSnapCloneStack,
	}[name]
	if shape, ok := specs[name]; ok {
		build = func(node *springfs.Node) (*Stack, error) {
			b, err := node.Build(shape)
			if err != nil {
				return nil, err
			}
			return localStack(node, b.Top, b.DropCaches), nil
		}
	}
	if client, ok := remotes[name]; ok {
		build = func(home *springfs.Node) (*Stack, error) { return newRemoteStack(home, client, name == "dfs-mixed") }
	}
	if build == nil {
		return nil, fmt.Errorf("conformance: unknown stack shape %q", name)
	}
	node := springfs.NewNode("conf-" + name)
	s, err := build(node)
	if err != nil {
		node.Stop()
		return nil, err
	}
	s.Name = name
	return s, nil
}

// localStack is the Stack of a shape built on one node: every process is a
// sibling on it, over the one shared file system top, with an address space
// on the node's VMM.
func localStack(node *springfs.Node, top springfs.StackableFS, dropCaches func() error) *Stack {
	return &Stack{
		NewProcess: func() (*unixapi.Process, error) {
			return unixapi.NewProcessVM(top, naming.Root, node.VMM()), nil
		},
		DropCaches: dropCaches,
		Close:      node.Stop,
	}
}

// newDiskStack is the base shape: the raw (non-coherent) disk layer alone.
// The SFS's coherency layer sits idle above it.
func newDiskStack(node *springfs.Node) (*Stack, error) {
	b, err := node.Build(spec(8192, []string{"disk"}))
	if err != nil {
		return nil, err
	}
	return localStack(node, b.Disks["disk"].Disk, b.DropCaches), nil
}

// newSnapCloneStack: processes run on a writable clone of a snapshot, so
// every check exercises the COW divergence path (reads fall through to the
// sealed parent epoch; first writes remap).
func newSnapCloneStack(node *springfs.Node) (*Stack, error) {
	b, err := node.Build(specs["sfs-snapfs"])
	if err != nil {
		return nil, err
	}
	snap := b.Top.(*snapfs.SnapFS)
	if err := snap.Snapshot("base"); err != nil {
		return nil, err
	}
	clone, err := snap.Clone("base", "work")
	if err != nil {
		return nil, err
	}
	return localStack(node, clone, b.DropCaches), nil
}

// newRemoteStack builds a remote shape: the exported SFS on home, and a
// machine building client for each remote process.
func newRemoteStack(home *springfs.Node, client springfs.Spec, mixed bool) (*Stack, error) {
	network := springfs.NewNetwork(springfs.LANInstant)
	home.Join(network)
	hb, err := home.Build(exported)
	if err != nil {
		return nil, err
	}
	builts := []*springfs.Built{hb}
	machines := []*springfs.Node{home}
	procs := 0
	newProcess := func() (*unixapi.Process, error) {
		procs++
		if mixed && procs%2 == 1 {
			return unixapi.NewProcessVM(hb.FS["sfs"], naming.Root, home.VMM()), nil
		}
		machine := springfs.NewNode(fmt.Sprintf("conf-remote%d", procs))
		machine.Join(network)
		b, err := machine.Build(client)
		if err != nil {
			machine.Stop()
			return nil, err
		}
		machines = append(machines, machine)
		builts = append(builts, b)
		return unixapi.NewProcessVM(b.Top, naming.Root, machine.VMM()), nil
	}
	return &Stack{
		NewProcess: newProcess,
		DropCaches: func() error {
			for i := len(builts) - 1; i >= 0; i-- {
				if err := builts[i].DropCaches(); err != nil {
					return err
				}
			}
			return nil
		},
		Close: func() {
			for i := len(machines) - 1; i >= 0; i-- {
				machines[i].Stop()
			}
		},
	}, nil
}
