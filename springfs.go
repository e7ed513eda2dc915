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
//	sfs, _ := node.NewSFS("sfs0a", springfs.DiskOptions{})
//	f, _ := sfs.FS().Create("hello.txt", springfs.Root)
//	f.WriteAt([]byte("hello, spring"), 0)
//
// See the examples/ directory for complete programs.
package springfs

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"springfs/internal/blockdev"
	"springfs/internal/cfs"
	"springfs/internal/coherency"
	"springfs/internal/compfs"
	"springfs/internal/cryptfs"
	"springfs/internal/dfs"
	"springfs/internal/disklayer"
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

// DiskFast keeps the ratios of the paper's 424 MB 4400 RPM disk at 1000x
// speed. Its delays are under 1 ms, below the sandbox timer floor (see
// benchmark/README.md): a timing taken on it measures the timer, so the
// benchmark uses 0 or at least 2 ms.
var DiskFast = blockdev.ProfileFast

// Network profiles.
var (
	// LAN approximates an early-90s departmental Ethernet.
	LAN = netsim.ProfileLAN
	// LANFast preserves LAN's shape at 100x speed; like DiskFast it is
	// below the sandbox timer floor and not for timing.
	LANFast = netsim.ProfileFast
	// LANInstant disables the network latency model.
	LANInstant = netsim.ProfileNone
)

// Node is a simulated Spring machine: a nucleus, a virtual memory manager,
// and a root name space, ready to host file system layers (Figure 1).
type Node struct {
	name string
	node *spring.Node
	vmm  *vm.VMM
	root *naming.BasicContext

	vmmDomain *spring.Domain
	nDisks    int

	mu   sync.Mutex
	sfss map[string]*SFS // assembled SFS instances by name
}

// NewNode boots a node: nucleus, VMM, and an empty root name space with a
// /fs_creators context holding creators for the standard layer types.
func NewNode(name string) *Node {
	sn := spring.NewNode(name)
	vmmDomain := spring.NewDomain(sn, "vmm")
	n := &Node{
		name:      name,
		node:      sn,
		vmm:       vm.New(vmmDomain, name+"-vmm"),
		root:      naming.NewContext(),
		vmmDomain: vmmDomain,
	}
	// Register the standard creators in the well-known context, so stacks
	// can be configured with the Section 4.4 recipe.
	layerDomain := n.NewDomain("layer-creators")
	must(fsys.RegisterCreator(n.root, "coherency_creator", coherency.NewCreator(layerDomain, n.vmm), Root))
	must(fsys.RegisterCreator(n.root, "compfs_creator", compfs.NewCreator(layerDomain), Root))
	must(fsys.RegisterCreator(n.root, "cryptfs_creator", cryptfs.NewCreator(layerDomain), Root))
	must(fsys.RegisterCreator(n.root, "mirrorfs_creator", mirrorfs.NewCreator(layerDomain), Root))
	must(fsys.RegisterCreator(n.root, "snapfs_creator", snapfs.NewCreator(layerDomain), Root))
	must(fsys.RegisterCreator(n.root, "stripefs_creator", stripefs.NewCreator(layerDomain), Root))
	must(fsys.RegisterCreator(n.root, "dfs_creator", dfs.NewCreator(layerDomain, Root), Root))
	return n
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// Snapshot exports the current observability state: every counter value
// plus count/mean/p50/p95/p99 for every non-empty latency histogram, keyed
// by the `layer.op` names documented in docs/OBSERVABILITY.md. The registry
// is process-wide (layer instrumentation records into one shared registry
// regardless of which simulated node it serves), so in multi-node processes
// the snapshot covers all nodes.
func (n *Node) Snapshot() stats.Snapshot { return stats.Default.Export() }

// ResetStats zeroes every counter and histogram in the observability
// registry, starting a fresh measurement interval.
func (n *Node) ResetStats() { stats.Default.ResetAll() }

// Stop shuts the node's domains down.
func (n *Node) Stop() { n.node.Stop() }

// VMM returns the node's virtual memory manager.
func (n *Node) VMM() *vm.VMM { return n.vmm }

// Root returns the node's root naming context.
func (n *Node) Root() *naming.BasicContext { return n.root }

// NewDomain starts a fresh domain on the node.
func (n *Node) NewDomain(name string) *spring.Domain {
	return spring.NewDomain(n.node, name)
}

// Connect builds an invocation channel between two domains.
func Connect(client, server *spring.Domain) *spring.Channel {
	return spring.Connect(client, server)
}

// LookupCreator resolves a registered stackable_fs_creator by name (e.g.
// "compfs_creator").
func (n *Node) LookupCreator(name string) (fsys.Creator, error) {
	return fsys.LookupCreator(n.root, name, Root)
}

// ConfigureStack runs the Section 4.4 recipe against the node's creator
// registry: create an instance of creatorName, stack it on under (in
// order), and bind it at exportName in the node's root (empty name skips
// the bind).
func (n *Node) ConfigureStack(creatorName string, config map[string]string, under []StackableFS, exportName string) (StackableFS, error) {
	return fsys.ConfigureStack(n.root, creatorName, config, under, n.root, exportName, Root)
}

// DiskOptions configure NewSFS.
type DiskOptions struct {
	// Blocks is the device size in 4 KiB blocks (default 4096 = 16 MiB).
	Blocks int64
	// Latency is the device timing model (default: none).
	Latency blockdev.LatencyProfile
	// SeparateDomains puts the coherency layer in its own domain, with
	// the disk layer in another — the paper's production configuration
	// where the disk layer is wired down and the coherency layer is
	// pageable (Section 6.2).
	SeparateDomains bool
}

// SFS bundles the two layers of a Spring storage file system (Figure 10):
// a coherency layer stacked on a disk layer, with all files exported via
// the coherency layer.
type SFS struct {
	// Device is the simulated RAM disk; nil for file-backed volumes.
	Device *blockdev.MemDevice
	// RawDevice is the device regardless of backing.
	RawDevice blockdev.Device
	// Disk is the base (non-coherent) disk layer.
	Disk *disklayer.DiskFS
	// Coherency is the exported coherent layer.
	Coherency *coherency.CohFS
	// DiskDomain and CohDomain serve the two layers.
	DiskDomain, CohDomain *spring.Domain
}

// FS returns the exported file system (the coherency layer).
func (s *SFS) FS() StackableFS { return s.Coherency }

// NewSFS formats a fresh device and assembles SFS on it, binding it at
// /fs/<name> in the node's root.
func (n *Node) NewSFS(name string, opts DiskOptions) (*SFS, error) {
	if opts.Blocks == 0 {
		opts.Blocks = 4096
	}
	dev := blockdev.NewMem(opts.Blocks, opts.Latency)
	if err := disklayer.Mkfs(dev, disklayer.MkfsOptions{}); err != nil {
		return nil, err
	}
	return n.mountSFS(name, dev, opts.SeparateDomains)
}

// MountSFS assembles SFS over an existing formatted device.
func (n *Node) MountSFS(name string, dev *blockdev.MemDevice, separateDomains bool) (*SFS, error) {
	return n.mountSFS(name, dev, separateDomains)
}

func (n *Node) mountSFS(name string, dev *blockdev.MemDevice, separateDomains bool) (*SFS, error) {
	return n.mountSFSOn(name, dev, dev, separateDomains)
}

// NewPersistentSFS assembles SFS over a file-backed device at path
// (formatting it on first use), so the volume survives process restarts.
func (n *Node) NewPersistentSFS(name, path string, blocks int64, separateDomains bool) (*SFS, error) {
	if blocks == 0 {
		blocks = 4096
	}
	dev, err := blockdev.OpenFile(path, blocks, blockdev.ProfileNone)
	if err != nil {
		return nil, err
	}
	if _, err := disklayer.Mount(dev, n.NewDomain("probe"), n.vmm, "probe"); err != nil {
		// Not formatted yet (or incompatible): format fresh.
		if ferr := disklayer.Mkfs(dev, disklayer.MkfsOptions{}); ferr != nil {
			return nil, ferr
		}
	}
	return n.mountSFSOn(name, nil, dev, separateDomains)
}

func (n *Node) mountSFSOn(name string, mem *blockdev.MemDevice, dev blockdev.Device, separateDomains bool) (*SFS, error) {
	n.nDisks++
	diskDomain := n.NewDomain(fmt.Sprintf("%s-disk", name))
	cohDomain := diskDomain
	if separateDomains {
		cohDomain = n.NewDomain(fmt.Sprintf("%s-coherency", name))
	}
	disk, err := disklayer.Mount(dev, diskDomain, n.vmm, name+"-disk")
	if err != nil {
		return nil, err
	}
	coh := coherency.New(cohDomain, n.vmm, name)
	var under StackableFS = disk
	if separateDomains {
		under = fsys.WrapStackable(spring.Connect(cohDomain, diskDomain), disk)
	}
	if err := coh.StackOn(under); err != nil {
		return nil, err
	}
	if err := n.ensureFSContext(); err != nil {
		return nil, err
	}
	if err := n.root.Bind("fs/"+name, coh, Root); err != nil {
		return nil, err
	}
	sfs := &SFS{Device: mem, RawDevice: dev, Disk: disk, Coherency: coh, DiskDomain: diskDomain, CohDomain: cohDomain}
	n.mu.Lock()
	if n.sfss == nil {
		n.sfss = make(map[string]*SFS)
	}
	n.sfss[name] = sfs
	n.mu.Unlock()
	return sfs, nil
}

// SFS returns the assembled SFS instance with the given name (as passed to
// NewSFS/MountSFS/NewPersistentSFS), or nil if none exists. Tools use it
// to reach below the exported coherency layer — e.g. springsh's fsck needs
// the disk layer and its device.
func (n *Node) SFS(name string) *SFS {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sfss[name]
}

func (n *Node) ensureFSContext() error {
	if _, err := n.root.Resolve("fs", Root); err != nil {
		if _, cerr := n.root.CreateContext("fs", Root); cerr != nil {
			return cerr
		}
	}
	return nil
}

// NewCoherencyLayer creates a generic coherency layer instance (stack it
// on any non-coherent layer to get a coherent stack, Section 6.3).
func (n *Node) NewCoherencyLayer(name string) *coherency.CohFS {
	return coherency.New(n.NewDomain(name), n.vmm, name)
}

// NewCompFS creates a compression layer instance.
func (n *Node) NewCompFS(name string, coherent bool) *compfs.CompFS {
	mode := compfs.ModeCoherent
	if !coherent {
		mode = compfs.ModeNonCoherent
	}
	return compfs.New(n.NewDomain(name), name, mode)
}

// NewCryptFS creates an encrypting layer instance.
func (n *Node) NewCryptFS(name, passphrase string) (*cryptfs.CryptFS, error) {
	return cryptfs.New(n.NewDomain(name), name, passphrase)
}

// NewMirrorFS creates a mirroring layer instance (stack it on exactly two
// underlying file systems).
func (n *Node) NewMirrorFS(name string) *mirrorfs.MirrorFS {
	return mirrorfs.New(n.NewDomain(name), name)
}

// NewSnapFS creates a copy-on-write snapshot/clone layer instance (stack
// it on any file system; see docs/SNAPSHOTS.md).
func (n *Node) NewSnapFS(name string) *snapfs.SnapFS {
	return snapfs.New(n.NewDomain(name), name)
}

// NewStripeFS creates a parallel striping layer instance (stack it on one
// metadata file system and then N data file systems, in that order; see
// docs/STRIPING.md). A zero stripeSize selects the default stripe width.
func (n *Node) NewStripeFS(name string, stripeSize int64) (*stripefs.StripeFS, error) {
	return stripefs.New(n.NewDomain(name), name, stripefs.Options{StripeSize: stripeSize})
}

// ServeDFS creates a DFS server stacked on under and starts serving
// protocol connections on l.
func (n *Node) ServeDFS(name string, under StackableFS, l net.Listener) (*dfs.Server, error) {
	srv := dfs.NewServer(n.NewDomain(name), name, Root)
	if err := srv.StackOn(under); err != nil {
		return nil, err
	}
	go srv.Serve(l)
	return srv, nil
}

// DialDFS connects this node to a DFS server over conn.
func (n *Node) DialDFS(conn net.Conn, name string) *dfs.Client {
	return dfs.NewClient(conn, n.NewDomain(name), name)
}

// NewDFSClientFS wraps a DFS client as a stackable file system.
func NewDFSClientFS(client *dfs.Client, name string) *dfs.ClientFS {
	return dfs.NewClientFS(client, name)
}

// NewCFS starts the node's caching file system (interpose it on remote
// files with Interpose / InterposeOnContext).
func (n *Node) NewCFS(name string) *cfs.CFS {
	return cfs.New(n.NewDomain(name), n.vmm, name)
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

// Stack composes layers bottom-up: Stack(base, mid, top) stacks mid on
// base and top on mid, returning the top. Layers in different domains are
// connected through invocation channels automatically when both sides
// expose their domains; callers needing explicit cross-domain stacking use
// fsys.WrapStackable via the Wrap helper.
func Stack(layers ...StackableFS) (StackableFS, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("springfs: Stack needs at least one layer")
	}
	for i := 1; i < len(layers); i++ {
		if err := layers[i].StackOn(layers[i-1]); err != nil {
			return nil, fmt.Errorf("springfs: stacking %s on %s: %w",
				layers[i].FSName(), layers[i-1].FSName(), err)
		}
	}
	return layers[len(layers)-1], nil
}

// WrapStackable returns a cross-domain proxy for fs reachable over ch (the
// stub layer of the paper; collapses to fs for same-domain channels).
func WrapStackable(ch *spring.Channel, fs StackableFS) StackableFS {
	return fsys.WrapStackable(ch, fs)
}

// ReadFile reads the whole content of the file at name under fs.
func ReadFile(fs StackableFS, name string) ([]byte, error) {
	f, err := fs.Open(name, Root)
	if err != nil {
		return nil, err
	}
	attrs, err := f.Stat()
	if err != nil {
		return nil, err
	}
	out := make([]byte, attrs.Length)
	if len(out) == 0 {
		return out, nil
	}
	if _, err := f.ReadAt(out, 0); err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	return out, nil
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
