package conformance

import (
	"fmt"

	"springfs"
	"springfs/internal/blockdev"
	"springfs/internal/dfs"
	"springfs/internal/disklayer"
	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/unixapi"
)

// StackNames lists the shapes BuildStack knows, in the order the suite
// normally runs them.
var StackNames = []string{"disk", "sfs-compfs", "sfs-cryptfs", "mirror", "dfs-remote", "sfs-snapfs", "sfs-snapfs-clone", "sfs-stripe", "stripe-mirror", "sfs-passthrough"}

// shapes maps each shape to what builds it on a fresh node.
var shapes = map[string]func(node *springfs.Node) (*Stack, error){
	"disk": newDiskStack,
	// COMPFS (coherent mode) on SFS.
	"sfs-compfs": layerOnSFSs(8192, func(node *springfs.Node) (springfs.StackableFS, error) {
		return node.NewCompFS("compfs", true), nil
	}, "sfs"),
	"sfs-cryptfs": layerOnSFSs(8192, func(node *springfs.Node) (springfs.StackableFS, error) {
		return node.NewCryptFS("cryptfs", "conformance-passphrase")
	}, "sfs"),
	// The mirroring layer over two SFS instances (fs4 of Figure 3).
	"mirror": layerOnSFSs(8192, func(node *springfs.Node) (springfs.StackableFS, error) {
		return node.NewMirrorFS("mirror"), nil
	}, "sfs1", "sfs2"),
	"dfs-remote": newDFSStack,
	// The COW snapshot layer (main line) on SFS.
	"sfs-snapfs": layerOnSFSs(16384, func(node *springfs.Node) (springfs.StackableFS, error) {
		return node.NewSnapFS("snapfs"), nil
	}, "sfs"),
	"sfs-snapfs-clone": newSnapCloneStack,
	// The striping layer over one metadata SFS and three data SFS
	// instances. The stripe is kept small (4 pages) so the suite's ordinary
	// file sizes straddle stripe and server boundaries.
	"sfs-stripe": layerOnSFSs(8192, func(node *springfs.Node) (springfs.StackableFS, error) {
		return node.NewStripeFS("stripe", 4*springfs.PageSize)
	}, "meta", "data0", "data1", "data2"),
	"stripe-mirror": newStripeMirrorStack,
	// The identity layer: the layer kit (fsys.Passthrough) with no
	// transform of its own.
	"sfs-passthrough": layerOnSFSs(8192, func(*springfs.Node) (springfs.StackableFS, error) {
		return fsys.NewIdentityFS("passthrough"), nil
	}, "sfs"),
}

// BuildStack assembles one named stack shape on fresh simulated hardware.
// It owns the node's lifetime until the stack is built: whatever error stops
// the build stops the node too.
func BuildStack(name string) (*Stack, error) {
	build, ok := shapes[name]
	if !ok {
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
// sibling on it, over the one shared file system top.
func localStack(node *springfs.Node, top springfs.StackableFS, sfss ...*springfs.SFS) *Stack {
	return &Stack{
		NewProcess: func() (*unixapi.Process, error) {
			return unixapi.NewProcess(top, naming.Root), nil
		},
		DropCaches: coldCaches(node, sfss...),
		Close:      node.Stop,
	}
}

// coldCaches is Stack.DropCaches for a shape built on one node: the node's
// VMM writes back and drops every page, then each SFS's coherency layer
// writes through and drops its block cache.
func coldCaches(node *springfs.Node, sfss ...*springfs.SFS) func() error {
	return func() error {
		if err := node.VMM().DropCaches(); err != nil {
			return err
		}
		for _, sfs := range sfss {
			if err := sfs.Coherency.DropDataCaches(); err != nil {
				return err
			}
		}
		return nil
	}
}

// newSFSs makes one SFS of the given size per name.
func newSFSs(node *springfs.Node, blocks int64, names ...string) ([]*springfs.SFS, error) {
	sfss := make([]*springfs.SFS, len(names))
	for i, name := range names {
		sfs, err := node.NewSFS(name, springfs.DiskOptions{Blocks: blocks})
		if err != nil {
			return nil, err
		}
		sfss[i] = sfs
	}
	return sfss, nil
}

// layerOnSFSs builds the layer mkLayer makes, stacked on one SFS of the
// given size per name, in that order.
func layerOnSFSs(blocks int64, mkLayer func(*springfs.Node) (springfs.StackableFS, error), names ...string) func(*springfs.Node) (*Stack, error) {
	return func(node *springfs.Node) (*Stack, error) {
		sfss, err := newSFSs(node, blocks, names...)
		if err != nil {
			return nil, err
		}
		layer, err := mkLayer(node)
		if err != nil {
			return nil, err
		}
		for _, sfs := range sfss {
			if err := layer.StackOn(sfs.FS()); err != nil {
				return nil, err
			}
		}
		return localStack(node, layer, sfss...), nil
	}
}

// newDiskStack is the base shape: the raw (non-coherent) disk layer alone.
func newDiskStack(node *springfs.Node) (*Stack, error) {
	dev := blockdev.NewMem(8192, blockdev.ProfileNone)
	if err := disklayer.Mkfs(dev, disklayer.MkfsOptions{}); err != nil {
		return nil, err
	}
	disk, err := disklayer.Mount(dev, node.NewDomain("disk"), node.VMM(), "conf-disk")
	if err != nil {
		return nil, err
	}
	return localStack(node, disk), nil
}

// newSnapCloneStack: processes run on a writable clone of a snapshot, so
// every check exercises the COW divergence path (reads fall through to the
// sealed parent epoch; first writes remap).
func newSnapCloneStack(node *springfs.Node) (*Stack, error) {
	sfs, err := node.NewSFS("sfs", springfs.DiskOptions{Blocks: 16384})
	if err != nil {
		return nil, err
	}
	snap := node.NewSnapFS("snapfs")
	if err := snap.StackOn(sfs.FS()); err != nil {
		return nil, err
	}
	if err := snap.Snapshot("base"); err != nil {
		return nil, err
	}
	clone, err := snap.Clone("base", "work")
	if err != nil {
		return nil, err
	}
	return localStack(node, clone, sfs), nil
}

// newStripeMirrorStack: striping where data server 0 is itself a mirroring
// layer over two SFS instances — per-stripe failover below the striping
// layer.
func newStripeMirrorStack(node *springfs.Node) (*Stack, error) {
	sfss, err := newSFSs(node, 8192, "meta", "m1", "m2", "data1")
	if err != nil {
		return nil, err
	}
	mirror := node.NewMirrorFS("mirror")
	stripe, err := node.NewStripeFS("stripe", 4*springfs.PageSize)
	if err != nil {
		return nil, err
	}
	meta, m1, m2, data1 := sfss[0].FS(), sfss[1].FS(), sfss[2].FS(), sfss[3].FS()
	for _, on := range []struct{ layer, under springfs.StackableFS }{
		{mirror, m1}, {mirror, m2}, {stripe, meta}, {stripe, mirror}, {stripe, data1},
	} {
		if err := on.layer.StackOn(on.under); err != nil {
			return nil, err
		}
	}
	return localStack(node, stripe, sfss...), nil
}

// newDFSStack: SFS on a home node exported by a DFS server; every process
// runs on its own remote machine, dialing a fresh connection, so the suite
// exercises cross-machine semantics (unlink on one machine vs an open
// descriptor on another, appends racing across the network).
func newDFSStack(home *springfs.Node) (*Stack, error) {
	sfs, err := home.NewSFS("sfs", springfs.DiskOptions{Blocks: 8192})
	if err != nil {
		return nil, err
	}
	network := springfs.NewNetwork(springfs.LANInstant)
	l, err := network.Listen("home:dfs")
	if err != nil {
		return nil, err
	}
	if _, err := home.ServeDFS("dfs", sfs.FS(), l); err != nil {
		return nil, err
	}

	var nodes []*springfs.Node
	var clients []*dfs.Client
	n := 0
	newProcess := func() (*unixapi.Process, error) {
		n++
		machine := springfs.NewNode(fmt.Sprintf("conf-remote%d", n))
		conn, err := network.Dial("home:dfs")
		if err != nil {
			machine.Stop()
			return nil, err
		}
		client := machine.DialDFS(conn, fmt.Sprintf("dfsc%d", n))
		nodes = append(nodes, machine)
		clients = append(clients, client)
		return unixapi.NewProcess(dfs.NewClientFS(client, "dfs-remote"), naming.Root), nil
	}
	return &Stack{
		NewProcess: newProcess,
		DropCaches: func() error {
			for _, nd := range nodes {
				if err := nd.VMM().DropCaches(); err != nil {
					return err
				}
			}
			return coldCaches(home, sfs)()
		},
		Close: func() {
			for _, c := range clients {
				_ = c.Close()
			}
			for _, nd := range nodes {
				nd.Stop()
			}
			home.Stop()
		},
	}, nil
}
