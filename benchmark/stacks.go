package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"springfs/internal/blockdev"
	"springfs/internal/cfs"
	"springfs/internal/coherency"
	"springfs/internal/compfs"
	"springfs/internal/cryptfs"
	"springfs/internal/dfs"
	"springfs/internal/disklayer"
	"springfs/internal/fsys"
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

// The two timing regimes. A modelled delay is either zero, so the run is
// CPU-bound and measures the program, or at least 2 ms, so the sandbox
// timer honours it: on this box any sleep below 1 ms takes 1.1 ms (see
// README.md, "The timer finding").
var (
	benchDisk = blockdev.LatencyProfile{Seek: 2 * time.Millisecond, Rotation: 2 * time.Millisecond, PerBlock: 50 * time.Microsecond}
	// benchLAN leaves bandwidth unmodelled on purpose: a per-message
	// sleep of a few microseconds would charge every small frame 1.1 ms.
	benchLAN = netsim.Profile{Latency: 2 * time.Millisecond}
)

// cachePages caps every node's VMM (8 MiB), so "fits the cache" and
// "exceeds the cache" mean something.
const cachePages = 2048

// callTimeout bounds one DFS round trip (callbacks: half of it, so that an
// outer call outlives a callback nested in it).
const callTimeout = 60 * time.Second

// stripeSize is the sfs-stripe stripe width.
const stripeSize = 64 << 10

// regime is the pair of delay models a stack is built with.
type regime struct {
	disk blockdev.LatencyProfile
	lan  netsim.Profile
}

// stackShape names a stack this benchmark can build. Names follow
// internal/conformance/stacks.go where the shape exists there.
type stackShape string

const (
	shapeDisk      stackShape = "disk"
	shapeSFS1      stackShape = "sfs-1dom"
	shapeSFS2      stackShape = "sfs-2dom"
	shapeCrypt     stackShape = "sfs-cryptfs"
	shapeComp      stackShape = "sfs-compfs"
	shapeSnapClone stackShape = "sfs-snapfs-clone"
	shapeMirror    stackShape = "mirror"
	shapeStripe    stackShape = "sfs-stripe"
	shapeDFS       stackShape = "dfs-cfs"
)

// stack is one assembled stack plus everything the harness reads counts
// from or has to shut down.
type stack struct {
	shape stackShape
	top   fsys.StackableFS // what processes are opened on
	rec   *recorder        // nil when untraced

	nodes   []*spring.Node
	domains []*spring.Domain
	vmms    []*vm.VMM
	cohs    []*coherency.CohFS
	disks   []*disklayer.DiskFS
	devs    []*blockdev.MemDevice
	probed  devCounts // filled by P-dev on traced runs

	comp    *compfs.CompFS
	network *netsim.Network
	server  *dfs.Server
	client  *dfs.Client
}

// builder assembles stacks for one regime, with or without probes.
type builder struct {
	regime regime
	rec    *recorder
	blocks int64 // device size of every SFS in the stack
	inodes int64 // inode table size of every SFS in the stack
	// images, when set, are formatted and populated devices: each disk
	// layer takes the next one and mounts a copy instead of running mkfs.
	images []*blockdev.MemDevice
}

func (b *builder) node(s *stack, name string) (*spring.Node, *vm.VMM) {
	n := spring.NewNode(name)
	s.nodes = append(s.nodes, n)
	v := vm.New(b.domain(s, n, "vmm"), name+"-vmm")
	v.SetMaxPages(cachePages)
	s.vmms = append(s.vmms, v)
	return n, v
}

func (b *builder) domain(s *stack, n *spring.Node, name string) *spring.Domain {
	d := spring.NewDomain(n, name)
	s.domains = append(s.domains, d)
	return d
}

// diskLayer formats a device and mounts the disk layer on it. On a traced
// run the device handed to disklayer.Mount is the P-dev probe.
func (b *builder) diskLayer(s *stack, n *spring.Node, v *vm.VMM, name string) (*disklayer.DiskFS, error) {
	mem := blockdev.NewMem(b.blocks, b.regime.disk)
	s.devs = append(s.devs, mem)
	var dev blockdev.Device = mem
	if b.rec != nil {
		dev = probeDevice(mem, b.rec, &s.probed)
	}
	if len(b.images) > 0 {
		if err := copyDevice(mem, b.images[0]); err != nil {
			return nil, err
		}
		b.images = b.images[1:]
	} else if err := disklayer.Mkfs(dev, disklayer.MkfsOptions{NumInodes: b.inodes}); err != nil {
		return nil, err
	}
	disk, err := disklayer.Mount(dev, b.domain(s, n, name+"-disk"), v, name+"-disk")
	if err != nil {
		return nil, err
	}
	s.disks = append(s.disks, disk)
	return disk, nil
}

// copyDevice copies every block of src to dst in 1 MiB runs.
func copyDevice(dst, src *blockdev.MemDevice) error {
	const run = 256
	buf := make([]byte, run*blockdev.BlockSize)
	for bn := int64(0); bn < src.NumBlocks(); bn += run {
		n := min(run, src.NumBlocks()-bn)
		if err := src.ReadRun(bn, buf[:n*blockdev.BlockSize]); err != nil {
			return err
		}
		if err := dst.WriteRun(bn, buf[:n*blockdev.BlockSize]); err != nil {
			return err
		}
	}
	return nil
}

// sfs assembles coherency on disklayer, in one domain or two (the paper's
// production configuration, as springfs.Node.NewSFS builds it).
func (b *builder) sfs(s *stack, n *spring.Node, v *vm.VMM, name string, twoDomains bool) (*coherency.CohFS, error) {
	disk, err := b.diskLayer(s, n, v, name)
	if err != nil {
		return nil, err
	}
	cohDomain := disk.Domain()
	var under fsys.StackableFS = disk
	if twoDomains {
		cohDomain = b.domain(s, n, name+"-coherency")
		under = fsys.WrapStackable(spring.Connect(cohDomain, disk.Domain()), disk)
	}
	coh := coherency.New(cohDomain, v, name)
	if err := coh.StackOn(under); err != nil {
		return nil, err
	}
	s.cohs = append(s.cohs, coh)
	return coh, nil
}

// build assembles the named shape. On error the partial stack is closed.
func (b *builder) build(shape stackShape) (*stack, error) {
	s := &stack{shape: shape, rec: b.rec}
	top, err := b.assemble(s, shape)
	if err != nil {
		s.close()
		return nil, fmt.Errorf("build %s: %w", shape, err)
	}
	s.top = top
	if b.rec != nil {
		s.top = newFSProbe(top, b.rec)
	}
	return s, nil
}

func (b *builder) assemble(s *stack, shape stackShape) (fsys.StackableFS, error) {
	n, v := b.node(s, string(shape))
	switch shape {
	case shapeDisk:
		return b.diskLayer(s, n, v, "d0")
	case shapeSFS1:
		return b.sfs(s, n, v, "sfs", false)
	case shapeSFS2:
		return b.sfs(s, n, v, "sfs", true)
	case shapeCrypt:
		sfs, err := b.sfs(s, n, v, "sfs", false)
		if err != nil {
			return nil, err
		}
		layer, err := cryptfs.New(b.domain(s, n, "cryptfs"), "cryptfs", "benchmark-passphrase")
		if err != nil {
			return nil, err
		}
		return layer, layer.StackOn(sfs)
	case shapeComp:
		sfs, err := b.sfs(s, n, v, "sfs", false)
		if err != nil {
			return nil, err
		}
		s.comp = compfs.New(b.domain(s, n, "compfs"), "compfs", compfs.ModeCoherent)
		return s.comp, s.comp.StackOn(sfs)
	case shapeSnapClone:
		sfs, err := b.sfs(s, n, v, "sfs", false)
		if err != nil {
			return nil, err
		}
		snap := snapfs.New(b.domain(s, n, "snapfs"), "snapfs")
		if err := snap.StackOn(sfs); err != nil {
			return nil, err
		}
		if err := snap.Snapshot("base"); err != nil {
			return nil, err
		}
		return snap.Clone("base", "work")
	case shapeMirror:
		layer := mirrorfs.New(b.domain(s, n, "mirror"), "mirror")
		for _, name := range []string{"sfs1", "sfs2"} {
			sfs, err := b.sfs(s, n, v, name, false)
			if err != nil {
				return nil, err
			}
			if err := layer.StackOn(sfs); err != nil {
				return nil, err
			}
		}
		return layer, nil
	case shapeStripe:
		layer, err := stripefs.New(b.domain(s, n, "stripe"), "stripe", stripefs.Options{StripeSize: stripeSize})
		if err != nil {
			return nil, err
		}
		for _, name := range []string{"meta", "data0", "data1", "data2"} {
			sfs, err := b.sfs(s, n, v, name, false)
			if err != nil {
				return nil, err
			}
			if err := layer.StackOn(sfs); err != nil {
				return nil, err
			}
		}
		return layer, nil
	case shapeDFS:
		return b.remote(s, n, v)
	}
	return nil, fmt.Errorf("unknown stack shape %q", shape)
}

// remote assembles the paper's Figure 9 path: unixapi → cfs (local VMM) →
// dfs client → netsim → dfs server → sfs-1dom on the home node. home and
// homeVMM are the node build already made.
func (b *builder) remote(s *stack, home *spring.Node, homeVMM *vm.VMM) (fsys.StackableFS, error) {
	sfs, err := b.sfs(s, home, homeVMM, "sfs", false)
	if err != nil {
		return nil, err
	}
	s.network = netsim.New(b.regime.lan)
	l, err := s.network.Listen("home:dfs")
	if err != nil {
		return nil, err
	}
	var probe *netProbe
	if b.rec != nil {
		probe = newNetProbe(b.rec)
		l = probe.listener(l)
	}
	s.server = dfs.NewServer(b.domain(s, home, "dfs"), "dfs", naming.Root)
	if err := s.server.StackOn(sfs); err != nil {
		return nil, err
	}
	go s.server.Serve(l) // returns when server.Close closes l

	machine, machineVMM := b.node(s, "client")
	conn, err := s.network.Dial("home:dfs")
	if err != nil {
		return nil, err
	}
	if probe != nil {
		conn = probe.client(conn)
	}
	s.client = dfs.NewClient(conn, b.domain(s, machine, "dfsc"), "dfsc")
	// A call that pages megabytes out over a 2 ms link one page at a time
	// outlasts the 5 s default; the workloads must see slow calls, not
	// failed ones.
	s.client.SetCallTimeout(callTimeout)
	s.server.SetCallbackTimeout(callTimeout / 2)
	return &cfsView{
		ClientFS: dfs.NewClientFS(s.client, "dfs-cfs"),
		cfs:      cfs.New(b.domain(s, machine, "cfs"), machineVMM, "cfs"),
	}, nil
}

// cfsView is the client machine's name space with CFS running: every
// remote file that a resolution returns is interposed on, so reads, writes
// and stats are served through the local VMM and attribute cache.
type cfsView struct {
	*dfs.ClientFS
	cfs *cfs.CFS
}

func (c *cfsView) Create(name string, cred naming.Credentials) (fsys.File, error) {
	f, err := c.ClientFS.Create(name, cred)
	if err != nil {
		return nil, err
	}
	return c.cfs.InterposeObject(f).(fsys.File), nil
}

func (c *cfsView) Open(name string, cred naming.Credentials) (fsys.File, error) {
	f, err := c.ClientFS.Open(name, cred)
	if err != nil {
		return nil, err
	}
	return c.cfs.InterposeObject(f).(fsys.File), nil
}

func (c *cfsView) Resolve(name string, cred naming.Credentials) (naming.Object, error) {
	obj, err := c.ClientFS.Resolve(name, cred)
	if err != nil {
		return nil, err
	}
	return c.cfs.InterposeObject(obj), nil
}

// newProc opens a process on the stack.
func (s *stack) newProc() *proc {
	return &proc{p: unixapi.NewProcess(s.top, naming.Root), rec: s.rec}
}

// dropCaches makes every data cache in the stack cold: VMM pages first
// (dirty ones are written back), then the coherency layers' blocks.
func (s *stack) dropCaches() error {
	var errs []error
	for _, v := range s.vmms {
		errs = append(errs, v.DropCaches())
	}
	for _, c := range s.cohs {
		errs = append(errs, c.DropDataCaches())
	}
	return errors.Join(errs...)
}

// settle writes every cache down to the devices and unmounts the disk
// layers, leaving device images another builder can mount.
func (s *stack) settle() error {
	if err := s.dropCaches(); err != nil {
		return err
	}
	for _, d := range s.disks {
		if err := d.Unmount(); err != nil {
			return err
		}
	}
	return nil
}

// check syncs every disk layer and runs the offline checker over its
// device.
func (s *stack) check() error {
	for i, d := range s.disks {
		if err := d.SyncFS(); err != nil {
			return fmt.Errorf("%s: sync %s: %w", s.shape, d.FSName(), err)
		}
		report, err := disklayer.Check(s.devs[i], false)
		if err != nil {
			return fmt.Errorf("%s: check %s: %w", s.shape, d.FSName(), err)
		}
		if len(report.Problems) > 0 {
			return fmt.Errorf("%s: check %s: %s", s.shape, d.FSName(), report)
		}
	}
	return nil
}

// close shuts the stack down: the DFS session first, then every domain.
func (s *stack) close() {
	if s.client != nil {
		_ = s.client.Close() // the stack is going away; a failed detach changes nothing
	}
	if s.server != nil {
		s.server.Close()
	}
	for _, n := range s.nodes {
		n.Stop()
	}
}

// counts is a snapshot of every count the harness reads from the program
// and the runtime. Metrics are made from the difference of two snapshots.
type counts map[string]int64

func (s *stack) counts() counts {
	c := counts{}
	snap := stats.Default.Export()
	for name, v := range snap.Counters {
		c[name] = v
	}
	c["coh.write_through.calls"] = snap.Histograms["coh.write_through"].Count
	for _, d := range s.devs {
		r, w := d.IOCount()
		c["dev.read_blocks"] += r
		c["dev.write_blocks"] += w
	}
	c["probe.read_ios"] = s.probed.ReadIOs.Load()
	c["probe.write_ios"] = s.probed.WriteIOs.Load()
	c["probe.flushes"] = s.probed.Flushes.Load()
	for _, d := range s.domains {
		c["spring.crossings"] += d.Invocations.Value()
	}
	for _, coh := range s.cohs {
		c["coh.lower_page_ins"] += coh.LowerPageIns.Value()
	}
	if s.comp != nil {
		c["compfs.stored_bytes"] = s.comp.CompressedBytes.Value()
		c["compfs.user_bytes"] = s.comp.UncompressedBytes.Value()
	}
	if s.network != nil {
		c["net.msgs"] = s.network.Messages.Value()
		c["net.bytes"] = s.network.Bytes.Value()
	}
	if s.client != nil {
		c["dfs.rpcs"] = s.client.RemoteCalls.Value()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c["runtime.allocs"] = int64(m.Mallocs)
	c["runtime.alloc_bytes"] = int64(m.TotalAlloc)
	c["runtime.gc_pause_ns"] = int64(m.PauseTotalNs)
	return c
}

// since returns c - before, key by key.
func (c counts) since(before counts) counts {
	out := counts{}
	for k, v := range c {
		out[k] = v - before[k]
	}
	return out
}
