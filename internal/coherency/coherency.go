// Package coherency implements the generic coherency layer of the paper
// (Section 6.2): a stackable file system layer that implements a per-block
// multiple-readers/single-writer coherency protocol and caches file data
// and attributes.
//
// The layer keeps track of the state of each file block (read-only vs
// read-write) and of each cache object that holds the block at any point
// in time; coherency actions are triggered depending on the state and the
// current request. It also caches file attributes using the operations of
// the fs_cache and fs_pager interfaces.
//
// Two uses from the paper:
//
//   - Spring SFS is the coherency layer stacked on the (non-coherent) disk
//     layer, with all files exported via the coherency layer (Figure 10).
//     The two layers may share a domain or be split across domains.
//
//   - Coherent stacks from non-coherent layers (Section 6.3): starting from
//     any non-coherent base, stack a coherency layer on it and export files
//     through the coherency layer; every exported file is then coherent
//     with its underlying file.
//
// Deadlock discipline: a block's protocol state is guarded by a busy flag.
// A busy flag is held only across local work and *upward* call-outs
// (coherency actions against the caches above, which are bounded by
// induction up the stack); every *downward* call (fetching from or writing
// to the layer below, which can block inside the lower layer's own
// protocol) happens with no busy flag held, and installs revalidate a
// block epoch that revocations bump — the same protocol the VMM uses for
// in-flight faults.
//
// The unit of a coherency action is the run: cohFile.revoke holds the busy
// flags of up to maxRevokeBlocks contiguous blocks at once and makes
// one call-out per holder per sub-run. It takes the flags of a run in
// ascending block order, so two runs cannot wait for each other in a cycle;
// everything else that takes a flag — storeBlock, the install after a lower
// fetch, the write-through snapshot — holds one at a time and so cannot be
// part of a cycle either. The rule above is unchanged for runs: local work
// and upward call-outs only, never a downward call.
//
// # Vocabulary
//
// The cache/pager vocabulary from the layer's point of view — it plays
// both halves at once:
//
//   - Downward it is a cache manager: it binds to each underlying file and
//     keeps the fetched blocks in its own cache, presenting an fs_cache
//     object so the lower layer's revocations reach it.
//   - Upward it is a pager: whoever maps or binds one of its files (a VMM,
//     another stacked layer, a DFS server on another machine) becomes a
//     holder the protocol tracks.
//   - holder: one cache object's claim on one block, at read-only or
//     read-write strength. The per-block rule is many readers or exactly
//     one writer.
//   - coherency action (revocation): the call-outs that restore the rule —
//     flush_back (retrieve dirty data), deny_writes (downgrade to
//     read-only), delete_range (discard) — issued against holders when a
//     conflicting request arrives, one call per holder per run of blocks.
//   - write-through: dirty blocks are synced to the lower layer when
//     coherency demands it or on Sync, not on every write.
package coherency

import (
	"fmt"
	"sync"
	"sync/atomic"

	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/stats"
	"springfs/internal/vm"
)

// BlockSize is the coherency protocol's block granularity; one VM page.
const BlockSize = vm.PageSize

// ErrHolderUnreachable is returned by a page-in whose revocation found a
// write-holding cache that can no longer be reached (a dead remote
// client): the holder has been dropped from the block, so a retry
// proceeds, but its unflushed modifications may be lost and the caller
// must not assume it read the latest data silently.
var ErrHolderUnreachable = fmt.Errorf("coherency: write-holding cache unreachable, holder dropped (%w)", fsys.ErrUnavailable)

// Instrumented operations (see docs/OBSERVABILITY.md for the two tiers).
// The hot ops sit on cached paths and record only during a tracing window;
// the always-on ops mark traffic to the lower layer and coherency
// call-outs, whose cost dwarfs the clock reads.
var (
	opOpen    = stats.NewHotOp("coh.open", stats.BoundaryDirect)
	opResolve = stats.NewHotOp("coh.resolve", stats.BoundaryDirect)
	opCreate  = stats.NewHotOp("coh.create", stats.BoundaryDirect)
	opRead    = stats.NewHotOp("coh.read", stats.BoundaryDirect)
	opWrite   = stats.NewHotOp("coh.write", stats.BoundaryDirect)
	opStat    = stats.NewHotOp("coh.stat", stats.BoundaryDirect)

	opPageIn       = stats.NewOp("coh.page_in", stats.BoundaryDirect)
	opWriteThrough = stats.NewOp("coh.write_through", stats.BoundaryDirect)
	opRevoke       = stats.NewOp("coh.revoke", stats.BoundaryDirect)
)

// grantsStat counts write page-ins answered with the coherency action alone
// (cohFile.grantWrite). LowerPageIns keeps counting only fetches that moved
// data from the layer below. Registered eagerly so `springsh stats` shows
// it before traffic arrives.
var grantsStat = stats.Default.Counter("coh.grants")

// CohFS is an instance of the coherency layer: the pass-through name space
// of fsys.Passthrough with every file wrapped in a cohFile.
type CohFS struct {
	fsys.Passthrough
	domain *spring.Domain
	vmm    *vm.VMM
	table  *fsys.ConnectionTable

	nextBacking atomic.Uint64

	// Counters used by tests and the bench harness to verify, e.g., that
	// cached operations make no calls to the lower layer (Table 2).
	LowerPageIns  stats.Counter
	LowerPageOuts stats.Counter
	Revocations   stats.Counter
	// LostHolders counts revocations that found the holder unreachable
	// and dropped it (graceful degradation instead of wedging the block).
	LostHolders stats.Counter
}

var (
	_ fsys.StackableFS      = (*CohFS)(nil)
	_ naming.ProxyWrappable = (*CohFS)(nil)
)

// New creates a coherency layer instance served by domain, using the
// node's vmm for its read/write mappings.
func New(domain *spring.Domain, vmm *vm.VMM, name string) *CohFS {
	c := &CohFS{domain: domain, vmm: vmm, table: fsys.NewConnectionTable(domain)}
	c.Init(name, c, c.newFile)
	return c
}

// NewCreator returns a stackable_fs_creator for coherency layers. Each
// created instance is served by domain and uses vmm.
func NewCreator(domain *spring.Domain, vmm *vm.VMM) fsys.Creator {
	var n atomic.Uint64
	return fsys.CreatorFunc(func(config map[string]string) (fsys.StackableFS, error) {
		name := config["name"]
		if name == "" {
			name = fmt.Sprintf("coherency%d", n.Add(1))
		}
		return New(domain, vmm, name), nil
	})
}

// Domain returns the serving domain.
func (c *CohFS) Domain() *spring.Domain { return c.domain }

// newFile builds the coherent wrapper for a lower file. The kit keeps one
// wrapper per lower file, which keeps the bind contract (equivalent memory
// objects share one pager-cache connection per manager).
func (c *CohFS) newFile(lower fsys.File) fsys.File {
	f := &cohFile{
		fs:      c,
		lower:   lower,
		backing: c.nextBacking.Add(1),
		blocks:  make(map[int64]*blockState),
	}
	f.conn = fsys.LowerConn{Layer: c.FSName(), ID: f.backing, Domain: c.domain,
		Lower: lower, Access: vm.RightsWrite, Cache: &lowerCacheObject{f: f}}
	f.bcond = sync.NewCond(&f.bmu)
	f.io = fsys.NewMappedIO(c.vmm, f)
	return f
}

// Create implements fsys.FS.
func (c *CohFS) Create(name string, cred naming.Credentials) (fsys.File, error) {
	t := opCreate.Start()
	defer opCreate.End(t, 0)
	return c.Passthrough.Create(name, cred)
}

// Open implements fsys.FS.
func (c *CohFS) Open(name string, cred naming.Credentials) (fsys.File, error) {
	t := opOpen.Start()
	defer opOpen.End(t, 0)
	obj, err := c.Resolve(name, cred)
	if err != nil {
		return nil, err
	}
	return fsys.AsFile(obj)
}

// Resolve implements naming.Context, wrapping resolved lower objects in
// coherent counterparts.
func (c *CohFS) Resolve(name string, cred naming.Credentials) (naming.Object, error) {
	t := opResolve.Start()
	defer opResolve.End(t, 0)
	return c.Passthrough.Resolve(name, cred)
}

// SyncFS implements fsys.FS: flush all dirty blocks and attributes to the
// lower layer, then sync it.
func (c *CohFS) SyncFS() error {
	for _, f := range c.Files() {
		if err := f.(*cohFile).flushAll(); err != nil {
			return err
		}
	}
	return c.Passthrough.SyncFS()
}

// InvalidateAttrCaches drops every file's cached attributes so the next
// stat refetches from the lower layer. The benchmark harness uses it to
// measure the "not cached by the coherency layer" rows of Table 2.
func (c *CohFS) InvalidateAttrCaches() {
	for _, f := range c.Files() {
		f.(*cohFile).attrs.Invalidate()
	}
}

// DropDataCaches flushes all dirty state to the lower layer and discards
// every cached block and attribute, leaving the layer fully cold
// (benchmark/test hook).
func (c *CohFS) DropDataCaches() error {
	for _, f := range c.Files() {
		f := f.(*cohFile)
		if err := f.dropAll(); err != nil {
			return err
		}
		f.attrs.Invalidate()
	}
	return nil
}
