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

// BuildStack assembles one named stack shape on fresh simulated hardware.
func BuildStack(name string) (*Stack, error) {
	switch name {
	case "disk":
		return newDiskStack()
	case "sfs-compfs":
		return newCompStack()
	case "sfs-cryptfs":
		return newCryptStack()
	case "mirror":
		return newMirrorStack()
	case "dfs-remote":
		return newDFSStack()
	case "sfs-snapfs":
		return newSnapStack()
	case "sfs-snapfs-clone":
		return newSnapCloneStack()
	case "sfs-stripe":
		return newStripeStack()
	case "stripe-mirror":
		return newStripeMirrorStack()
	case "sfs-passthrough":
		return newPassthroughStack()
	}
	return nil, fmt.Errorf("conformance: unknown stack shape %q", name)
}

// sharedProcs adapts a single shared file system to the Stack interface:
// every process is a sibling on the one node.
func sharedProcs(fs springfs.StackableFS) func() (*unixapi.Process, error) {
	return func() (*unixapi.Process, error) {
		return unixapi.NewProcess(fs, naming.Root), nil
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

// newDiskStack is the base shape: the raw (non-coherent) disk layer alone.
func newDiskStack() (*Stack, error) {
	node := springfs.NewNode("conf-disk")
	dev := blockdev.NewMem(8192, blockdev.ProfileNone)
	if err := disklayer.Mkfs(dev, disklayer.MkfsOptions{}); err != nil {
		node.Stop()
		return nil, err
	}
	disk, err := disklayer.Mount(dev, node.NewDomain("disk"), node.VMM(), "conf-disk")
	if err != nil {
		node.Stop()
		return nil, err
	}
	return &Stack{
		Name:       "disk",
		NewProcess: sharedProcs(disk),
		DropCaches: coldCaches(node),
		Close:      node.Stop,
	}, nil
}

// newCompStack: COMPFS (coherent mode) on SFS.
func newCompStack() (*Stack, error) {
	node := springfs.NewNode("conf-comp")
	sfs, err := node.NewSFS("sfs", springfs.DiskOptions{Blocks: 8192})
	if err != nil {
		node.Stop()
		return nil, err
	}
	comp := node.NewCompFS("compfs", true)
	if err := comp.StackOn(sfs.FS()); err != nil {
		node.Stop()
		return nil, err
	}
	return &Stack{
		Name:       "sfs-compfs",
		NewProcess: sharedProcs(comp),
		DropCaches: coldCaches(node, sfs),
		Close:      node.Stop,
	}, nil
}

// newCryptStack: CryptFS on SFS.
func newCryptStack() (*Stack, error) {
	node := springfs.NewNode("conf-crypt")
	sfs, err := node.NewSFS("sfs", springfs.DiskOptions{Blocks: 8192})
	if err != nil {
		node.Stop()
		return nil, err
	}
	crypt, err := node.NewCryptFS("cryptfs", "conformance-passphrase")
	if err != nil {
		node.Stop()
		return nil, err
	}
	if err := crypt.StackOn(sfs.FS()); err != nil {
		node.Stop()
		return nil, err
	}
	return &Stack{
		Name:       "sfs-cryptfs",
		NewProcess: sharedProcs(crypt),
		DropCaches: coldCaches(node, sfs),
		Close:      node.Stop,
	}, nil
}

// newPassthroughStack: the identity layer on SFS — the layer kit
// (fsys.Passthrough) with no transform of its own.
func newPassthroughStack() (*Stack, error) {
	node := springfs.NewNode("conf-passthrough")
	sfs, err := node.NewSFS("sfs", springfs.DiskOptions{Blocks: 8192})
	if err != nil {
		node.Stop()
		return nil, err
	}
	ident := fsys.NewIdentityFS("passthrough")
	if err := ident.StackOn(sfs.FS()); err != nil {
		node.Stop()
		return nil, err
	}
	return &Stack{
		Name:       "sfs-passthrough",
		NewProcess: sharedProcs(ident),
		DropCaches: coldCaches(node, sfs),
		Close:      node.Stop,
	}, nil
}

// newMirrorStack: the mirroring layer over two SFS instances (fs4 of
// Figure 3).
func newMirrorStack() (*Stack, error) {
	node := springfs.NewNode("conf-mirror")
	sfs1, err := node.NewSFS("sfs1", springfs.DiskOptions{Blocks: 8192})
	if err != nil {
		node.Stop()
		return nil, err
	}
	sfs2, err := node.NewSFS("sfs2", springfs.DiskOptions{Blocks: 8192})
	if err != nil {
		node.Stop()
		return nil, err
	}
	mirror := node.NewMirrorFS("mirror")
	if err := mirror.StackOn(sfs1.FS()); err != nil {
		node.Stop()
		return nil, err
	}
	if err := mirror.StackOn(sfs2.FS()); err != nil {
		node.Stop()
		return nil, err
	}
	return &Stack{
		Name:       "mirror",
		NewProcess: sharedProcs(mirror),
		DropCaches: coldCaches(node, sfs1, sfs2),
		Close:      node.Stop,
	}, nil
}

// newSnapStack: the COW snapshot layer (main line) on SFS.
func newSnapStack() (*Stack, error) {
	node := springfs.NewNode("conf-snap")
	sfs, err := node.NewSFS("sfs", springfs.DiskOptions{Blocks: 16384})
	if err != nil {
		node.Stop()
		return nil, err
	}
	snap := node.NewSnapFS("snapfs")
	if err := snap.StackOn(sfs.FS()); err != nil {
		node.Stop()
		return nil, err
	}
	return &Stack{
		Name:       "sfs-snapfs",
		NewProcess: sharedProcs(snap),
		DropCaches: coldCaches(node, sfs),
		Close:      node.Stop,
	}, nil
}

// newSnapCloneStack: processes run on a writable clone of a snapshot, so
// every check exercises the COW divergence path (reads fall through to the
// sealed parent epoch; first writes remap).
func newSnapCloneStack() (*Stack, error) {
	node := springfs.NewNode("conf-snap-clone")
	sfs, err := node.NewSFS("sfs", springfs.DiskOptions{Blocks: 16384})
	if err != nil {
		node.Stop()
		return nil, err
	}
	snap := node.NewSnapFS("snapfs")
	if err := snap.StackOn(sfs.FS()); err != nil {
		node.Stop()
		return nil, err
	}
	if err := snap.Snapshot("base"); err != nil {
		node.Stop()
		return nil, err
	}
	clone, err := snap.Clone("base", "work")
	if err != nil {
		node.Stop()
		return nil, err
	}
	return &Stack{
		Name:       "sfs-snapfs-clone",
		NewProcess: sharedProcs(clone),
		DropCaches: coldCaches(node, sfs),
		Close:      node.Stop,
	}, nil
}

// newStripeStack: the striping layer over one metadata SFS and three data
// SFS instances. The stripe is kept small (4 pages) so the suite's
// ordinary file sizes straddle stripe and server boundaries.
func newStripeStack() (*Stack, error) {
	node := springfs.NewNode("conf-stripe")
	meta, err := node.NewSFS("meta", springfs.DiskOptions{Blocks: 8192})
	if err != nil {
		node.Stop()
		return nil, err
	}
	stripe, err := node.NewStripeFS("stripe", 4*springfs.PageSize)
	if err != nil {
		node.Stop()
		return nil, err
	}
	if err := stripe.StackOn(meta.FS()); err != nil {
		node.Stop()
		return nil, err
	}
	sfss := []*springfs.SFS{meta}
	for i := 0; i < 3; i++ {
		data, err := node.NewSFS(fmt.Sprintf("data%d", i), springfs.DiskOptions{Blocks: 8192})
		if err != nil {
			node.Stop()
			return nil, err
		}
		if err := stripe.StackOn(data.FS()); err != nil {
			node.Stop()
			return nil, err
		}
		sfss = append(sfss, data)
	}
	return &Stack{
		Name:       "sfs-stripe",
		NewProcess: sharedProcs(stripe),
		DropCaches: coldCaches(node, sfss...),
		Close:      node.Stop,
	}, nil
}

// newStripeMirrorStack: striping where data server 0 is itself a mirroring
// layer over two SFS instances — per-stripe failover below the striping
// layer.
func newStripeMirrorStack() (*Stack, error) {
	node := springfs.NewNode("conf-stripe-mirror")
	meta, err := node.NewSFS("meta", springfs.DiskOptions{Blocks: 8192})
	if err != nil {
		node.Stop()
		return nil, err
	}
	m1, err := node.NewSFS("m1", springfs.DiskOptions{Blocks: 8192})
	if err != nil {
		node.Stop()
		return nil, err
	}
	m2, err := node.NewSFS("m2", springfs.DiskOptions{Blocks: 8192})
	if err != nil {
		node.Stop()
		return nil, err
	}
	mirror := node.NewMirrorFS("mirror")
	if err := mirror.StackOn(m1.FS()); err != nil {
		node.Stop()
		return nil, err
	}
	if err := mirror.StackOn(m2.FS()); err != nil {
		node.Stop()
		return nil, err
	}
	data1, err := node.NewSFS("data1", springfs.DiskOptions{Blocks: 8192})
	if err != nil {
		node.Stop()
		return nil, err
	}
	stripe, err := node.NewStripeFS("stripe", 4*springfs.PageSize)
	if err != nil {
		node.Stop()
		return nil, err
	}
	if err := stripe.StackOn(meta.FS()); err != nil {
		node.Stop()
		return nil, err
	}
	if err := stripe.StackOn(mirror); err != nil {
		node.Stop()
		return nil, err
	}
	if err := stripe.StackOn(data1.FS()); err != nil {
		node.Stop()
		return nil, err
	}
	return &Stack{
		Name:       "stripe-mirror",
		NewProcess: sharedProcs(stripe),
		DropCaches: coldCaches(node, meta, m1, m2, data1),
		Close:      node.Stop,
	}, nil
}

// newDFSStack: SFS on a home node exported by a DFS server; every process
// runs on its own remote machine, dialing a fresh connection, so the suite
// exercises cross-machine semantics (unlink on one machine vs an open
// descriptor on another, appends racing across the network).
func newDFSStack() (*Stack, error) {
	home := springfs.NewNode("conf-home")
	sfs, err := home.NewSFS("sfs", springfs.DiskOptions{Blocks: 8192})
	if err != nil {
		home.Stop()
		return nil, err
	}
	network := springfs.NewNetwork(springfs.LANInstant)
	l, err := network.Listen("home:dfs")
	if err != nil {
		home.Stop()
		return nil, err
	}
	if _, err := home.ServeDFS("dfs", sfs.FS(), l); err != nil {
		home.Stop()
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
		Name:       "dfs-remote",
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
