package disklayer

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"springfs/internal/blockdev"
	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/stats"
	"springfs/internal/vm"
)

// Instrumented operations (docs/OBSERVABILITY.md). The hot tier covers
// operations the i-node and data caches usually absorb; the pager ops are
// always-on because they do real (modelled) device I/O.
var (
	opOpen    = stats.NewHotOp("disk.open", stats.BoundaryDirect)
	opResolve = stats.NewHotOp("disk.resolve", stats.BoundaryDirect)
	opRead    = stats.NewHotOp("disk.read", stats.BoundaryDirect)
	opWrite   = stats.NewHotOp("disk.write", stats.BoundaryDirect)
	opStat    = stats.NewHotOp("disk.stat", stats.BoundaryDirect)

	opPageIn  = stats.NewOp("disk.page_in", stats.BoundaryDirect)
	opPageOut = stats.NewOp("disk.page_out", stats.BoundaryDirect)
)

// DiskFS is the disk layer: a stackable file system built directly on a
// block device. It is a base layer — StackOn always fails — and it is
// non-coherent: its pagers serve data without tracking or reconciling
// multiple cache managers. Stack the generic coherency layer on top to get
// SFS (Figure 10).
type DiskFS struct {
	name   string
	dev    blockdev.Device
	domain *spring.Domain
	vmm    *vm.VMM
	table  *fsys.ConnectionTable
	clock  func() time.Time

	mu     sync.Mutex
	sb     superblock
	alloc  *allocator
	jnl    *journal
	txn    *txn // open metadata transaction, nil between operations
	icache map[uint64]*cachedInode
	dcache map[uint64][]dirEntry
	mcache map[int64][]int64 // indirect (pointer) blocks
	itable map[int64][]byte  // inode-table blocks, write-through (itableBlock)
	files  map[uint64]*diskFile
	dirs   map[uint64]*diskDir
	closed bool
}

var (
	_ fsys.StackableFS      = (*DiskFS)(nil)
	_ naming.ProxyWrappable = (*DiskFS)(nil)
)

// Mount opens a formatted device. The disk layer's objects are served from
// domain; vmm is the node's VMM, used to implement read/write operations
// through mappings.
//
// Mount is the recovery point: it scans the journal ring once, replays the
// committed batches a crash left un-checkpointed (discarding torn tails)
// before loading any state, and validates the superblock's geometry against
// the device so a truncated image fails with a clear ErrGeometry error
// instead of out-of-range I/O later.
func Mount(dev blockdev.Device, domain *spring.Domain, vmm *vm.VMM, name string) (*DiskFS, error) {
	buf := make([]byte, BlockSize)
	if err := dev.ReadBlock(0, buf); err != nil {
		return nil, err
	}
	fs := &DiskFS{
		name:   name,
		dev:    dev,
		domain: domain,
		vmm:    vmm,
		table:  fsys.NewConnectionTable(domain),
		clock:  time.Now,
		icache: make(map[uint64]*cachedInode),
		dcache: make(map[uint64][]dirEntry),
		mcache: make(map[int64][]int64),
		itable: make(map[int64][]byte),
		files:  make(map[uint64]*diskFile),
		dirs:   make(map[uint64]*diskDir),
	}
	sbErr := fs.sb.decode(buf)
	// Replay before trusting the superblock: a crash mid-checkpoint can
	// leave the in-place superblock copy torn, with the good image sitting
	// in the journal (the slot address is a format constant, so replay
	// does not need the superblock).
	cands, maxSeq, err := loadRing(dev)
	if err != nil {
		return nil, fmt.Errorf("disklayer: journal scan: %w", err)
	}
	replayed, err := replayRing(dev, cands, maxSeq)
	if err != nil {
		return nil, fmt.Errorf("disklayer: journal replay: %w", err)
	}
	if replayed {
		if err := dev.ReadBlock(0, buf); err != nil {
			return nil, err
		}
		sbErr = fs.sb.decode(buf)
	}
	if sbErr != nil {
		return nil, sbErr
	}
	if err := fs.sb.validate(dev.NumBlocks()); err != nil {
		return nil, err
	}
	alloc, err := loadAllocator(dev, &fs.sb)
	if err != nil {
		return nil, err
	}
	alloc.write = fs.metaWrite
	fs.alloc = alloc
	fs.jnl = openJournal(dev, &fs.sb, cands, maxSeq)
	// Sweep orphans: inodes unlinked while open whose last-close reclaim a
	// crash cut short. The unlink transaction left them allocated with no
	// links and no directory entry — their storage must go back to the pool
	// now, while no handles can exist.
	if err := fs.sweepOrphans(); err != nil {
		return nil, err
	}
	return fs, nil
}

// sweepOrphans frees every file inode with a zero link count. Such inodes
// are exactly the unlink-while-open orphans: Remove journals the zeroed
// link count atomically with the directory update and defers block
// reclamation to the last Release, so a crash in the window leaves the
// inode allocated but unreferenced. Called from Mount, before any handle
// can exist — the journal has just been replayed, so the table is read
// straight off the device, by the run, and the blocks warm the table cache.
func (fs *DiskFS) sweepOrphans() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var orphans []uint64
	buf := make([]byte, min(fs.sb.itableBlocks, itableCacheBlocks)*BlockSize)
	for b := int64(0); b < fs.sb.itableBlocks; b += itableCacheBlocks {
		run := buf[:min(itableCacheBlocks, fs.sb.itableBlocks-b)*BlockSize]
		if err := readRun(fs.dev, fs.sb.itableStart+b, run); err != nil {
			return err
		}
		for off := int64(0); off < int64(len(run)); off += InodeSize {
			ino := b*InodesPerBlock + off/InodeSize
			if off%BlockSize == 0 && len(fs.itable) < itableCacheBlocks {
				fs.itable[fs.sb.itableStart+b+off/BlockSize] = append([]byte(nil), run[off:off+BlockSize]...)
			}
			var in inode
			in.decode(run[off:])
			if ino >= 1 && ino <= fs.sb.ninodes && in.mode == ModeFile && in.nlink == 0 {
				orphans = append(orphans, uint64(ino))
			}
		}
	}
	for _, ino := range orphans {
		if err := fs.withTxn(func() error { return fs.freeInode(ino) }); err != nil {
			return err
		}
	}
	return nil
}

// now returns the current time in unix nanoseconds for inode stamps.
func (fs *DiskFS) now() int64 { return fs.clock().UnixNano() }

// Domain returns the serving domain.
func (fs *DiskFS) Domain() *spring.Domain { return fs.domain }

// Device returns the underlying block device.
func (fs *DiskFS) Device() blockdev.Device { return fs.dev }

// Geometry describes the on-disk region layout, for tools (fsck tests,
// image inspectors) that need to address raw metadata without duplicating
// format math.
type Geometry struct {
	NBlocks       int64
	NInodes       int64
	JournalStart  int64
	JournalBlocks int64
	BitmapStart   int64
	BitmapBlocks  int64
	ItableStart   int64
	ItableBlocks  int64
	DataStart     int64
}

// Geometry returns the mounted file system's region layout.
func (fs *DiskFS) Geometry() Geometry {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return Geometry{
		NBlocks:       fs.sb.nblocks,
		NInodes:       fs.sb.ninodes,
		JournalStart:  fs.sb.journalStart,
		JournalBlocks: fs.sb.journalBlocks,
		BitmapStart:   fs.sb.bitmapStart,
		BitmapBlocks:  fs.sb.bitmapBlocks,
		ItableStart:   fs.sb.itableStart,
		ItableBlocks:  fs.sb.itableBlocks,
		DataStart:     fs.sb.dataStart,
	}
}

// FreeBlocks returns the free data block count.
func (fs *DiskFS) FreeBlocks() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.sb.freeBlocks
}

// CheckConsistency recounts the allocation bitmap against the superblock
// (fsck-style; used by tests).
func (fs *DiskFS) CheckConsistency() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if got := fs.alloc.countFree(); got != fs.sb.freeBlocks {
		return fmt.Errorf("disklayer: bitmap free count %d != superblock %d", got, fs.sb.freeBlocks)
	}
	return nil
}

// FSName implements fsys.FS.
func (fs *DiskFS) FSName() string { return fs.name }

// StackOn implements fsys.StackableFS; the disk layer is a base layer.
func (fs *DiskFS) StackOn(under fsys.StackableFS) error {
	return fmt.Errorf("disklayer: %w: disk layer builds directly on a storage device", fsys.ErrAlreadyStacked)
}

// WrapForChannel implements naming.ProxyWrappable.
func (fs *DiskFS) WrapForChannel(ch *spring.Channel) naming.Object {
	return fsys.WrapStackable(ch, fs)
}

// walkDir resolves every component of name but the last, starting at
// directory from, to a directory inode: the one loop that walks a path.
// Caller holds fs.mu.
func (fs *DiskFS) walkDir(from uint64, name string) (dirIno uint64, last string, err error) {
	parts, err := naming.SplitName(name)
	if err != nil {
		return 0, "", err
	}
	dirIno = from
	for _, p := range parts[:len(parts)-1] {
		if dirIno, err = fs.dirLookup(dirIno, p); err != nil {
			return 0, "", err
		}
	}
	return dirIno, parts[len(parts)-1], nil
}

// nameOp runs op, an edit of the name space, in one journal transaction
// under fs.mu, and refuses it once the file system is closed.
func (fs *DiskFS) nameOp(op func() error) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return fsys.ErrClosed
	}
	return fs.withTxn(op)
}

// mknod creates name, resolved from directory from, as a fresh inode of
// mode (Create and CreateContext). It returns the new canonical object,
// taken under the hold of fs.mu that made the entry: the commit drops the
// lock, and an unlink racing in behind it could free the inode.
func (fs *DiskFS) mknod(from uint64, name string, mode uint32) (obj naming.Object, err error) {
	err = fs.nameOp(func() error {
		dirIno, last, err := fs.walkDir(from, name)
		if err != nil {
			return err
		}
		ci, err := fs.allocInode(mode)
		if err != nil {
			return err
		}
		if err := fs.dirInsert(dirIno, last, ci.ino); err != nil {
			if ferr := fs.freeInode(ci.ino); ferr != nil {
				return fmt.Errorf("%w (cleanup failed: %v)", err, ferr)
			}
			return err
		}
		obj = fs.objectLocked(ci.ino, mode)
		return nil
	})
	return obj, err
}

// Create implements fsys.FS.
func (fs *DiskFS) Create(name string, cred naming.Credentials) (fsys.File, error) {
	obj, err := fs.mknod(RootIno, name, ModeFile)
	if err != nil {
		return nil, err
	}
	return obj.(*diskFile), nil
}

// Open implements fsys.FS.
func (fs *DiskFS) Open(name string, cred naming.Credentials) (fsys.File, error) {
	t := opOpen.Start()
	defer opOpen.End(t, 0)
	obj, err := fs.Resolve(name, cred)
	if err != nil {
		return nil, err
	}
	return fsys.AsFile(obj)
}

// Remove implements fsys.FS: it is the root directory's Unbind.
func (fs *DiskFS) Remove(name string, cred naming.Credentials) error {
	return fs.Unbind(name, cred)
}

// unlink removes the entry name, resolved from directory from, and drops
// the link it held (Remove and Unbind). A directory must be empty.
func (fs *DiskFS) unlink(from uint64, name string) error {
	var freed uint64
	defer fs.purgeFreed(&freed)
	return fs.nameOp(func() error {
		dirIno, last, err := fs.walkDir(from, name)
		if err != nil {
			return err
		}
		ino, err := fs.dirLookup(dirIno, last)
		if err != nil {
			return err
		}
		if err := fs.requireEmpty(ino); err != nil {
			return err
		}
		if err := fs.dirRemove(dirIno, last); err != nil {
			return err
		}
		freed, err = fs.dropLinkLocked(ino)
		return err
	})
}

// requireEmpty refuses ino if it is a directory that still has entries.
// Caller holds fs.mu.
func (fs *DiskFS) requireEmpty(ino uint64) error {
	ci, err := fs.readInode(ino)
	if err != nil || ci.in.mode != ModeDir {
		return err
	}
	entries, _, err := fs.dirEntries(ino)
	if err == nil && len(entries) > 0 {
		err = ErrDirNotEmpty
	}
	return err
}

// dropLinkLocked drops one link from ino after its directory entry has been
// removed in the current transaction. The inode is reclaimed on its last
// link — unless the file still has open handles, in which case it is
// orphaned (link count zero, storage intact) so reads and writes through
// those handles keep working; the last Release reclaims it, and Mount's
// orphan sweep covers a crash in between. It returns the inode it
// reclaimed, or 0. Caller holds fs.mu inside a transaction.
func (fs *DiskFS) dropLinkLocked(ino uint64) (freed uint64, err error) {
	ci, err := fs.readInode(ino)
	if err != nil {
		return 0, err
	}
	f := fs.files[ino]
	switch {
	case ci.in.mode == ModeFree:
		return 0, nil // a dangling entry (fsck's dangling-entry) held no link
	case ci.in.nlink > 1:
		ci.in.nlink--
	case f != nil && f.refs > 0 && ci.in.mode == ModeFile:
		ci.in.nlink = 0
	default:
		if err := fs.reclaimLocked(ino); err != nil {
			return 0, err
		}
		return ino, nil
	}
	ci.dirty = true
	fs.txnRegister(ci)
	return 0, nil
}

// reclaimLocked frees ino, whose last link and last handle are gone, with
// its blocks, and forgets its canonical objects: the one way an inode
// leaves the name space (dropLinkLocked, the last Release). The caller
// must then purge its cached pages (purgeFreed) once fs.mu is released,
// or a reallocation of the inode number would resurrect the dead file's
// data. Caller holds fs.mu inside a transaction.
func (fs *DiskFS) reclaimLocked(ino uint64) error {
	if err := fs.freeInode(ino); err != nil {
		return err
	}
	if f, ok := fs.files[ino]; ok {
		f.truncGen.Add(1)
		delete(fs.files, ino)
	}
	delete(fs.dirs, ino)
	return nil
}

// purgeFreed purges the cached pages of *ino, the inode an operation
// reclaimed (0: none). Deferred before the operation takes fs.mu, it runs
// once the lock is released.
func (fs *DiskFS) purgeFreed(ino *uint64) {
	if *ino != 0 {
		fs.purgeCachedPages(*ino, 0)
	}
}

// purgeExtent covers any possible file offset; DeleteRange bounds it to the
// pages actually cached.
const purgeExtent = vm.Offset(1) << 56

// purgeCachedPages discards every page any cache manager holds for ino at
// or past from. It must be called WITHOUT fs.mu held: the cache calls cross
// domains and can contend with an in-flight page-out that is itself waiting
// on fs.mu.
//
// Connections in fs.table are keyed by inode number and outlive the files
// they were bound for, so when an inode is freed (unlink, rename-over,
// last-close reclaim) its cached pages must be dropped here — otherwise a
// later file allocated at the same inode number would read the dead file's
// data out of the VMM. Truncation purges the vacated tail for the same
// reason.
func (fs *DiskFS) purgeCachedPages(ino uint64, from vm.Offset) {
	for _, c := range fs.table.ConnectionsFor(ino) {
		c.Cache.DeleteRange(from, purgeExtent-from)
	}
}

// Rename implements fsys.FS: one journal transaction moves the source
// entry to the destination name, dropping any replaced destination's link
// exactly like an unlink would — so the whole rename (including the
// implicit unlink of the destination) is atomic across a crash.
func (fs *DiskFS) Rename(oldname, newname string, cred naming.Credentials) error {
	var freed uint64
	defer fs.purgeFreed(&freed)
	return fs.nameOp(func() error {
		if strings.HasPrefix(strings.Trim(newname, "/"), strings.Trim(oldname, "/")+"/") {
			return fmt.Errorf("disklayer: cannot move %q below itself", oldname)
		}
		odIno, oLast, err := fs.walkDir(RootIno, oldname)
		if err != nil {
			return err
		}
		ino, err := fs.dirLookup(odIno, oLast)
		if err != nil {
			return err
		}
		srcCi, err := fs.readInode(ino)
		if err != nil {
			return err
		}
		ndIno, nLast, err := fs.walkDir(RootIno, newname)
		if err != nil {
			return err
		}
		drop := []string{oLast}
		dstIno, err := fs.dirLookup(ndIno, nLast)
		replaced := err == nil
		if replaced {
			if dstIno == ino {
				return nil // same file: POSIX leaves both names alone
			}
			dstCi, err := fs.readInode(dstIno)
			if err != nil {
				return err
			}
			switch {
			case srcCi.in.mode != ModeDir && dstCi.in.mode == ModeDir:
				return ErrIsDir
			case srcCi.in.mode == ModeDir && dstCi.in.mode != ModeDir:
				return ErrNotDir
			}
			if err := fs.requireEmpty(dstIno); err != nil {
				return err
			}
			drop = append(drop, nLast)
		}
		// Each directory is rewritten once: inside one directory the old
		// name (and a replaced destination) go and the new name arrives in
		// a single edit.
		moved := &dirEntry{name: nLast, ino: ino}
		if odIno == ndIno {
			err = fs.dirEdit(odIno, drop, moved)
		} else if err = fs.dirEdit(ndIno, drop[1:], moved); err == nil {
			err = fs.dirEdit(odIno, drop[:1], nil)
		}
		if err != nil || !replaced {
			return err
		}
		freed, err = fs.dropLinkLocked(dstIno)
		return err
	})
}

// SyncFS implements fsys.FS: flush dirty inodes and the superblock, send
// every committed image home, then barrier the device. The dirty inodes go
// down in capacity-bounded transactions (each batch is a pure inode
// write-back, so any prefix of batches is a consistent on-disk state), and
// a final "seal" transaction writes the superblock behind a
// checkpoint of everything older. The seal's own image is then homed too
// and the blocks the checkpoint released from quarantine are zeroed, so
// after a successful SyncFS the device alone holds the file system: replay
// finds one batch, already current, and fsck of the raw device (mounted or
// not) reads a clean image with no freed data left in it.
func (fs *DiskFS) SyncFS() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var dirty []*cachedInode
	for _, ci := range fs.icache {
		if ci.dirty {
			dirty = append(dirty, ci)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].ino < dirty[j].ino })
	sbuf := getBlockBuf()
	defer putBlockBuf(sbuf)
	clear(sbuf)
	batch := fs.jnl.capacity() - 2
	if batch < 1 {
		batch = 1
	}
	for i := 0; i < len(dirty); i += batch {
		end := i + batch
		if end > len(dirty) {
			end = len(dirty)
		}
		group := dirty[i:end]
		if err := fs.withTxn(func() error {
			for _, ci := range group {
				if err := fs.writeInode(ci); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if err := fs.withTxn(func() error {
		fs.txn.seal = true
		fs.sb.encode(sbuf)
		return fs.metaWrite(0, sbuf)
	}); err != nil {
		return err
	}
	if err := fs.jnl.checkpointAll(); err != nil {
		return err
	}
	if err := fs.reclaim(); err != nil {
		return err
	}
	return fs.dev.Flush()
}

// Unmount flushes and marks the file system closed.
func (fs *DiskFS) Unmount() error {
	if err := fs.SyncFS(); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.closed = true
	return nil
}

// fileForLocked returns the canonical file object for ino. One object per
// inode keeps the bind contract: equivalent opens share the pager-cache
// connection and therefore cached pages.
func (fs *DiskFS) fileForLocked(ino uint64) *diskFile {
	if f, ok := fs.files[ino]; ok {
		return f
	}
	f := &diskFile{fs: fs, ino: ino}
	f.io = fsys.NewMappedIO(fs.vmm, f)
	fs.files[ino] = f
	return f
}

// dirForLocked returns the canonical directory context for ino.
func (fs *DiskFS) dirForLocked(ino uint64) *diskDir {
	if d, ok := fs.dirs[ino]; ok {
		return d
	}
	d := &diskDir{fs: fs, ino: ino}
	fs.dirs[ino] = d
	return d
}

// objectLocked returns the canonical object for ino, an inode of mode.
func (fs *DiskFS) objectLocked(ino uint64, mode uint32) naming.Object {
	if mode == ModeDir {
		return fs.dirForLocked(ino)
	}
	return fs.fileForLocked(ino)
}

// Resolve implements naming.Context (the file system is its own root
// directory context).
func (fs *DiskFS) Resolve(name string, cred naming.Credentials) (naming.Object, error) {
	t := opResolve.Start()
	defer opResolve.End(t, 0)
	return fs.rootDir().Resolve(name, cred)
}

// Bind implements naming.Context; disk directories store only files and
// directories created through the file system.
func (fs *DiskFS) Bind(name string, obj naming.Object, cred naming.Credentials) error {
	return fs.rootDir().Bind(name, obj, cred)
}

// Unbind implements naming.Context.
func (fs *DiskFS) Unbind(name string, cred naming.Credentials) error {
	return fs.rootDir().Unbind(name, cred)
}

// List implements naming.Context.
func (fs *DiskFS) List(cred naming.Credentials) ([]naming.Binding, error) {
	return fs.rootDir().List(cred)
}

// CreateContext implements naming.Context (mkdir).
func (fs *DiskFS) CreateContext(name string, cred naming.Credentials) (naming.Context, error) {
	return fs.rootDir().CreateContext(name, cred)
}

func (fs *DiskFS) rootDir() *diskDir {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.dirForLocked(RootIno)
}

// diskDir is a directory exposed as a naming context. Compound names work
// in every operation, resolved from the directory.
type diskDir struct {
	fs  *DiskFS
	ino uint64
}

var (
	_ naming.Context        = (*diskDir)(nil)
	_ naming.ProxyWrappable = (*diskDir)(nil)
)

// WrapForChannel implements naming.ProxyWrappable.
func (d *diskDir) WrapForChannel(ch *spring.Channel) naming.Object {
	return naming.NewContextProxy(ch, d)
}

// Resolve implements naming.Context.
func (d *diskDir) Resolve(name string, cred naming.Credentials) (naming.Object, error) {
	d.fs.mu.Lock()
	defer d.fs.mu.Unlock()
	dirIno, last, err := d.fs.walkDir(d.ino, name)
	if err != nil {
		return nil, err
	}
	ino, err := d.fs.dirLookup(dirIno, last)
	if err != nil {
		return nil, err
	}
	ci, err := d.fs.readInode(ino)
	if err != nil {
		return nil, err
	}
	return d.fs.objectLocked(ino, ci.in.mode), nil
}

// Bind implements naming.Context: a hard link to a file of this file
// system. Disk directories persist only file system objects; arbitrary
// object bindings belong in in-memory contexts.
func (d *diskDir) Bind(name string, obj naming.Object, cred naming.Credentials) error {
	f, ok := obj.(*diskFile)
	if !ok || f.fs != d.fs {
		return fmt.Errorf("disklayer: cannot bind foreign objects into an on-disk directory")
	}
	return d.fs.nameOp(func() error {
		dirIno, last, err := d.fs.walkDir(d.ino, name)
		if err != nil {
			return err
		}
		ci, err := d.fs.readInode(f.ino)
		if err != nil {
			return err
		}
		if err := d.fs.dirInsert(dirIno, last, f.ino); err != nil {
			return err
		}
		ci.in.nlink++
		ci.dirty = true
		d.fs.txnRegister(ci)
		return nil
	})
}

// Unbind implements naming.Context: it removes the entry and frees the
// inode when the last link goes away.
func (d *diskDir) Unbind(name string, cred naming.Credentials) error {
	return d.fs.unlink(d.ino, name)
}

// List implements naming.Context.
func (d *diskDir) List(cred naming.Credentials) ([]naming.Binding, error) {
	d.fs.mu.Lock()
	defer d.fs.mu.Unlock()
	entries, _, err := d.fs.dirEntries(d.ino)
	if err != nil {
		return nil, err
	}
	out := make([]naming.Binding, 0, len(entries))
	for _, e := range entries {
		ci, err := d.fs.readInode(e.ino)
		if err != nil {
			return nil, err
		}
		out = append(out, naming.Binding{Name: e.name, Object: d.fs.objectLocked(e.ino, ci.in.mode)})
	}
	return out, nil
}

// CreateContext implements naming.Context (mkdir). Compound names create
// the final directory under the (existing) prefix.
func (d *diskDir) CreateContext(name string, cred naming.Credentials) (naming.Context, error) {
	obj, err := d.fs.mknod(d.ino, name, ModeDir)
	if err != nil {
		return nil, err
	}
	return obj.(*diskDir), nil
}
