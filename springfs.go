// Package springfs is a Go reproduction of the extensible (stackable) file
// system architecture of the Spring operating system, as described in
// "Extensible File Systems in Spring" (Khalidi & Nelson, SOSP 1993).
//
// New file system functionality is added by composing ("stacking") new
// file system layers on top of existing ones. A stacked layer accesses the
// underlying layer's files through the same strongly-typed file interface
// it exports itself, can keep its files coherent with the underlying files
// by acting as a cache manager for them, and can share the very same
// cached memory when it does not transform the data.
//
// The package is a facade over the substrates in internal/: the
// object-invocation layer (domains, channels, narrowing), the naming
// service, the virtual memory system (cache/pager objects, the bind
// protocol), the simulated block device, and the file system layers (disk
// layer, coherency layer, COMPFS, CryptFS, MirrorFS, DFS, CFS, watchdog
// interposition).
//
// # Quick start
//
//	node := springfs.NewNode("demo")
//	defer node.Stop()
//	stack, _ := node.Build(springfs.Spec{Disks: []springfs.DiskSpec{{Name: "sfs0a"}}})
//	f, _ := stack.Top.Create("hello.txt", springfs.Root)
//	f.WriteAt([]byte("hello, spring"), 0)
//
// The Example functions of this package are complete, checked programs;
// Node.Build assembles a whole stack from a Spec.
package springfs

import (
	"fmt"
	"net"
	"sync"

	"springfs/internal/cfs"
	"springfs/internal/coherency"
	"springfs/internal/compfs"
	"springfs/internal/cryptfs"
	"springfs/internal/dfs"
	"springfs/internal/fsys"
	"springfs/internal/interpose"
	"springfs/internal/mirrorfs"
	"springfs/internal/naming"
	"springfs/internal/netsim"
	"springfs/internal/snapfs"
	"springfs/internal/spring"
	"springfs/internal/stats"
	"springfs/internal/stripefs"
	"springfs/internal/unixapi"
	"springfs/internal/vm"
)

// Re-exported core types: the strongly-typed interfaces of the
// architecture.
type (
	// File is the Spring file interface: a memory object plus read/write
	// operations (Table 1: bind but no paging operations).
	File = fsys.File
	// StackableFS is the stackable_fs interface (Figure 8): it inherits
	// from fs and naming_context and adds StackOn.
	StackableFS = fsys.StackableFS
	// Context is a naming context.
	Context = naming.Context
	// VMM is the per-node virtual memory manager.
	VMM = vm.VMM
	// Network is the simulated network used by DFS.
	Network = netsim.Network
	// SnapView is one snapshot (read-only) or clone (writable) view over
	// a SnapFS store.
	SnapView = snapfs.SnapView

	// SnapDiffEntry is one path that differs between two snapfs epochs.
	SnapDiffEntry = snapfs.DiffEntry
	// StripeFS is the parallel striping layer: RAID-0 over N data servers
	// with the name space on a separate metadata FS (see docs/STRIPING.md).
	StripeFS = stripefs.StripeFS
	// StripeStatus describes a striping layer's configuration and
	// per-server health.
	StripeStatus = stripefs.Status
	// WatchdogHooks intercept individual file operations (Section 5).
	WatchdogHooks = interpose.Hooks
	// NetProfile models network link timing.
	NetProfile = netsim.Profile
	// NetFaults configures fault injection (drop/duplicate/delay
	// probabilities) on a simulated network, via Network.SetFaults.
	NetFaults = netsim.Faults
)

// Re-exported constants and values.
const (
	// PageSize is the VM page / FS block size.
	PageSize = vm.PageSize
	// RightsRead grants read-only access.
	RightsRead = vm.RightsRead
	// RightsWrite grants read-write access.
	RightsWrite = vm.RightsWrite
)

// Root is the all-powerful principal.
var Root = naming.Root

// Network profiles.
var (
	// LAN approximates an early-90s departmental Ethernet.
	LAN = netsim.ProfileLAN
	// LANInstant disables the network latency model.
	LANInstant = netsim.ProfileNone
)

// Node is a simulated Spring machine: a nucleus, a virtual memory manager,
// and a root name space, ready to host file system layers (Figure 1).
type Node struct {
	node *spring.Node
	vmm  *vm.VMM
	root *naming.BasicContext

	mu       sync.Mutex
	networks []*netsim.Network // joined, in order
	closers  []func()          // of the layers the node made, in order
}

// NewNode boots a node: nucleus, VMM, and a root name space with an empty
// /fs context, where Build binds each disk, and a /fs_creators context
// holding creators for the standard layer types.
func NewNode(name string) *Node {
	sn := spring.NewNode(name)
	n := &Node{node: sn, vmm: vm.New(spring.NewDomain(sn, "vmm"), name+"-vmm"), root: naming.NewContext()}
	_, err := n.root.CreateContext("fs", Root)
	must(err)
	// Register the standard creators in the well-known context, so stacks
	// can be configured with the Section 4.4 recipe. A creator is a server
	// whose instances live in its own domain, so layers of different types
	// stacked on each other cross a domain boundary. A layer that holds
	// something open outside the node has a Close, which Stop calls.
	register := func(name string, creator func(*spring.Domain) fsys.Creator) {
		c := creator(n.NewDomain(name))
		must(fsys.RegisterCreator(n.root, name, fsys.CreatorFunc(func(config map[string]string) (fsys.StackableFS, error) {
			layer, err := c.CreateFS(config)
			if closer, ok := layer.(interface{ Close() }); ok {
				n.mu.Lock()
				n.closers = append(n.closers, closer.Close)
				n.mu.Unlock()
			}
			return layer, err
		}), Root))
	}
	register("coherency_creator", func(d *spring.Domain) fsys.Creator { return coherency.NewCreator(d, n.vmm) })
	register("compfs_creator", compfs.NewCreator)
	register("cryptfs_creator", cryptfs.NewCreator)
	register("mirrorfs_creator", mirrorfs.NewCreator)
	register("snapfs_creator", snapfs.NewCreator)
	register("stripefs_creator", stripefs.NewCreator)
	register("dfs_creator", func(d *spring.Domain) fsys.Creator { return dfs.NewCreator(d, Root, n.listen) })
	register("dfs_client_creator", func(d *spring.Domain) fsys.Creator { return dfs.NewClientCreator(d, n.dial) })
	register("cfs_creator", func(d *spring.Domain) fsys.Creator { return cfs.NewCreator(d, n.vmm) })
	// The identity layer forwards every file operation: no domain of its own.
	must(fsys.RegisterCreator(n.root, "identity_creator", fsys.CreatorFunc(func(config map[string]string) (fsys.StackableFS, error) {
		return fsys.NewIdentityFS(config["name"]), nil
	}), Root))
	return n
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// Snapshot exports the current observability state: every counter value
// plus count/mean/p50/p95/p99 for every non-empty latency histogram, keyed
// by the `layer.op` names documented in docs/OBSERVABILITY.md. The registry
// is process-wide (layer instrumentation records into one shared registry
// regardless of which simulated node it serves), so in multi-node processes
// the snapshot covers all nodes.
func (n *Node) Snapshot() stats.Snapshot { return stats.Default.Export() }

// Stop closes what the node's layers hold open on a network (a DFS
// server's listeners and connections, a DFS client's connection), newest
// first, and shuts the node's domains down.
func (n *Node) Stop() {
	n.mu.Lock()
	closers := n.closers
	n.closers = nil
	n.mu.Unlock()
	for i := len(closers) - 1; i >= 0; i-- {
		closers[i]()
	}
	n.node.Stop()
}

// Join attaches the node to network. A DFS server the node builds with an
// address listens there on every network the node has joined; a DFS client
// dials the first joined network with a server at its address.
func (n *Node) Join(network *Network) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.networks = append(n.networks, network)
}

// joined returns the networks the node has joined, or an error if none.
func (n *Node) joined() ([]*netsim.Network, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.networks) == 0 {
		return nil, fmt.Errorf("node %s has joined no network", n.node.Name())
	}
	return n.networks, nil
}

// listen opens a listener at address on every network the node has joined.
// The listeners opened before an error come back with it.
func (n *Node) listen(address string) ([]net.Listener, error) {
	networks, err := n.joined()
	var ls []net.Listener
	for _, nw := range networks {
		l, err := nw.Listen(address)
		if err != nil {
			return ls, err
		}
		ls = append(ls, l)
	}
	return ls, err
}

// dial connects to address on the first joined network that accepts.
func (n *Node) dial(address string) (net.Conn, error) {
	networks, err := n.joined()
	for _, nw := range networks {
		var conn net.Conn
		if conn, err = nw.Dial(address); err == nil {
			return conn, nil
		}
	}
	return nil, err
}

// VMM returns the node's virtual memory manager.
func (n *Node) VMM() *vm.VMM { return n.vmm }

// Root returns the node's root naming context.
func (n *Node) Root() *naming.BasicContext { return n.root }

// NewDomain starts a fresh domain on the node.
func (n *Node) NewDomain(name string) *spring.Domain {
	return spring.NewDomain(n.node, name)
}

// ConfigureStack runs the Section 4.4 recipe against the node's creator
// registry: create an instance of creatorName, stack it on under (in
// order), and bind it at exportName in the node's root (empty name skips
// the bind).
func (n *Node) ConfigureStack(creatorName string, config map[string]string, under []StackableFS, exportName string) (StackableFS, error) {
	return fsys.ConfigureStack(n.root, creatorName, config, under, n.root, exportName, Root)
}

// Watch wraps a file with watchdog hooks (per-file interposition,
// Section 5).
func Watch(orig File, hooks WatchdogHooks) File {
	return interpose.New(orig, hooks)
}

// NewNetwork creates a simulated network with the given profile.
func NewNetwork(profile NetProfile) *netsim.Network {
	return netsim.New(profile)
}

// ReadFile reads the whole content of the file at name under fs.
func ReadFile(fs StackableFS, name string) ([]byte, error) {
	return fsys.ReadFile(fs, name, Root)
}

// WriteFile creates (or truncates) the file at name under fs with content.
func WriteFile(fs StackableFS, name string, content []byte) error {
	f, err := fs.Open(name, Root)
	if err != nil {
		f, err = fs.Create(name, Root)
		if err != nil {
			return err
		}
	}
	if err := f.SetLength(0); err != nil {
		return err
	}
	if _, err := f.WriteAt(content, 0); err != nil {
		return err
	}
	return nil
}

// NewUserNamespace returns a per-domain name space overlaying the node's
// shared root: resolutions consult the private overlay first and fall back
// to the shared bindings, so every user (domain) sees the common file
// systems but can customise its own view (Section 3.2 of the paper).
func (n *Node) NewUserNamespace() *naming.DomainNamespace {
	return naming.NewDomainNamespace(n.root)
}

// ExportTo binds fs at name inside a fresh context guarded by an access
// control list granting resolve rights only to the listed principals (plus
// root). It implements the administrative decision of "whether and to whom
// to expose the files exported by the various file systems".
func (n *Node) ExportTo(name string, fs StackableFS, principals ...string) (Context, error) {
	entries := make(map[string]naming.Rights, len(principals))
	for _, p := range principals {
		entries[p] = naming.RightResolve
	}
	guarded := naming.NewContextACL(naming.NewACL(entries))
	if err := guarded.Bind(name, fs, Root); err != nil {
		return nil, err
	}
	return guarded, nil
}

// Credential builds credentials for a principal name.
func Credential(principal string) naming.Credentials {
	return naming.Credentials{Principal: principal}
}

// NewProcess starts a process over fs with root credentials: a POSIX-style
// process view over a stackable file system — the adapter Spring's UNIX
// emulation used (reference [11] of the paper) — with descriptors, open
// flags, lseek and a working directory.
func NewProcess(fs StackableFS) *unixapi.Process {
	return unixapi.NewProcess(fs, Root)
}
