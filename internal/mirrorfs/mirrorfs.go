// Package mirrorfs implements a mirroring file system layer — the fs4 of
// Figure 3 in the paper, which "uses two underlying file systems to
// implement its function (e.g. ... fs4 is a mirroring file system)".
//
// The layer is stacked on exactly two underlying file systems (StackOn is
// called twice; "the maximum number of file systems a particular layer may
// be stacked on is implementation dependent"). Writes go to both replicas;
// reads are served by the primary and fall over to the mirror when the
// primary fails, so the stack survives the loss of either underlying
// store.
package mirrorfs

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/stats"
	"springfs/internal/vm"
)

// MirrorFS is an instance of the mirroring layer.
type MirrorFS struct {
	fsys.PathBase
	table *fsys.ConnectionTable

	mu          sync.Mutex
	replicas    []fsys.StackableFS // exactly 2 once stacked: primary, mirror
	health      fsys.Health
	files       fsys.PathTable[*mirrorFile]
	nextBacking atomic.Uint64

	// Failovers counts reads served by the mirror after a primary
	// failure; Degraded counts mutations (writes, and name-space changes)
	// that reached only one replica; Resyncs counts successful replica
	// resynchronisations.
	Failovers stats.Counter
	Degraded  stats.Counter
	Resyncs   stats.Counter
}

var (
	_ fsys.PathLayer        = (*MirrorFS)(nil)
	_ naming.ProxyWrappable = (*MirrorFS)(nil)
)

// New creates a mirroring layer served by domain.
func New(domain *spring.Domain, name string) *MirrorFS {
	m := &MirrorFS{table: fsys.NewConnectionTable(domain)}
	m.Init(name, m)
	return m
}

// NewCreator returns a stackable_fs_creator for mirroring layers.
func NewCreator(domain *spring.Domain) fsys.Creator {
	var n atomic.Uint64
	return fsys.CreatorFunc(func(config map[string]string) (fsys.StackableFS, error) {
		name := config["name"]
		if name == "" {
			name = fmt.Sprintf("mirrorfs%d", n.Add(1))
		}
		return New(domain, name), nil
	})
}

// StackOn implements fsys.StackableFS; it must be called exactly twice,
// once per replica (primary first).
func (m *MirrorFS) StackOn(under fsys.StackableFS) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.replicas) >= 2 {
		return fsys.ErrAlreadyStacked
	}
	m.replicas = append(m.replicas, under)
	m.health.Add()
	return nil
}

// Health returns the fan-out state of (primary, mirror).
func (m *MirrorFS) Health() (primary, mirror bool) {
	return m.health.OK(0), m.health.OK(1)
}

// MarkUnhealthy removes replica i from the fan-out (test/operator hook;
// the normal path is a call to the replica failing with
// fsys.ErrUnavailable). Resync restores it.
func (m *MirrorFS) MarkUnhealthy(i int) { m.health.MarkUnhealthy(i) }

// both returns the two replicas or an error if the layer is not fully
// stacked.
func (m *MirrorFS) both() ([]fsys.StackableFS, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.replicas) < 2 {
		return nil, fmt.Errorf("mirrorfs: %w: need two underlying file systems, have %d",
			fsys.ErrNotStacked, len(m.replicas))
	}
	return m.replicas, nil
}

// errNoCopy is what a fan-out op returns for a replica that holds no copy
// of the file at hand (it was created while the replica was out): the
// replica is passed over, not indicted.
var errNoCopy = fmt.Errorf("mirrorfs: replica holds no copy (%w)", fsys.ErrUnavailable)

// fanOut runs op on every replica in the fan-out — a replica that is out
// is not called at all, so nothing pays a dead link's timeout twice — and
// drops one whose call fails at the transport level. It returns how many
// replicas did the operation, and the first error if none did.
func (m *MirrorFS) fanOut(op func(i int) error) (ok int, err error) {
	for i := 0; i < 2; i++ {
		if !m.health.OK(i) {
			continue
		}
		switch e := op(i); {
		case e == nil:
			ok++
		case e != errNoCopy:
			m.health.Note(i, e)
			if err == nil {
				err = e
			}
		}
	}
	switch {
	case ok > 0:
		return ok, nil
	case err == nil:
		err = fmt.Errorf("mirrorfs: no healthy replica (%w)", fsys.ErrUnavailable)
	}
	return 0, err
}

// mutate is fanOut for an operation that changes state: done by one
// replica only it succeeds degraded, leaving Resync to reconcile the other.
func (m *MirrorFS) mutate(op func(i int) error) error {
	ok, err := m.fanOut(op)
	if ok == 1 {
		m.Degraded.Inc()
	}
	return err
}

// failOver runs a read-only op on the primary and, if that fails or the
// primary is out of the fan-out, on the mirror.
func (m *MirrorFS) failOver(op func(i int) error) error {
	if m.health.OK(0) {
		err := op(0)
		if err == nil {
			return nil
		}
		if err != errNoCopy {
			m.health.Note(0, err)
		}
	}
	if !m.health.OK(1) {
		return fmt.Errorf("mirrorfs: both replicas unavailable (%w)", fsys.ErrUnavailable)
	}
	err := op(1)
	if err != errNoCopy {
		m.Failovers.Inc()
		m.health.Note(1, err)
	}
	return err
}

// fileFor returns the canonical mirrored file for a path.
func (m *MirrorFS) fileFor(name string, primary, mirror fsys.File) *mirrorFile {
	return m.files.LookupOrAdd(name, func() *mirrorFile {
		return &mirrorFile{fs: m, primary: primary, mirror: mirror, backing: m.nextBacking.Add(1)}
	})
}

// Create implements fsys.FS: the file is created on both replicas, or on
// the survivor if one is down.
func (m *MirrorFS) Create(name string, cred naming.Credentials) (fsys.File, error) {
	rs, err := m.both()
	if err != nil {
		return nil, err
	}
	var made [2]fsys.File
	err = m.mutate(func(i int) (e error) {
		made[i], e = rs[i].Create(name, cred)
		return e
	})
	if err != nil {
		return nil, fmt.Errorf("mirrorfs: create failed on both replicas: %w", err)
	}
	return m.fileFor(name, made[0], made[1]), nil
}

// Remove implements fsys.FS. A file unlinked while handles retain it keeps
// its storage (nlink 0) on each replica; the handle table keeps the wrapper
// as an orphan so Resync can rebuild it on a healed replica, which the
// name-based tree copy cannot see.
func (m *MirrorFS) Remove(name string, cred naming.Credentials) error {
	rs, err := m.both()
	if err != nil {
		return err
	}
	if err := m.mutate(func(i int) error { return rs[i].Remove(name, cred) }); err != nil {
		return err
	}
	m.files.Remove(name)
	return nil
}

// Rename implements fsys.FS; the wrapper moves with the name — every wrapper
// beneath it, if the name is a directory — and an overwritten destination's
// wrapper is dropped (or orphaned, like Remove).
func (m *MirrorFS) Rename(oldname, newname string, cred naming.Credentials) error {
	rs, err := m.both()
	if err != nil {
		return err
	}
	if oldname == newname {
		_, err := m.Resolve(oldname, cred)
		return err
	}
	// With no wrapper filed under the old name it is a file nobody opened
	// or a directory, whose wrappers are filed beneath it: ask a replica
	// that did the rename which.
	_, filed := m.files.Lookup(oldname)
	dir := false
	err = m.mutate(func(i int) error {
		if err := rs[i].Rename(oldname, newname, cred); err != nil {
			return err
		}
		dir = dir || !filed && fsys.IsDirAt(rs[i], newname, cred)
		return nil
	})
	if err != nil {
		return err
	}
	m.files.Rename(oldname, newname, dir)
	return nil
}

// SyncFS implements fsys.FS.
func (m *MirrorFS) SyncFS() error {
	rs, err := m.both()
	if err != nil {
		return err
	}
	return m.mutate(func(i int) error { return rs[i].SyncFS() })
}

// Resolve implements naming.Context. The file must exist on at least one
// replica in the fan-out; a missing copy degrades rather than fails.
func (m *MirrorFS) Resolve(name string, cred naming.Credentials) (naming.Object, error) {
	rs, err := m.both()
	if err != nil {
		return nil, err
	}
	var objs [2]naming.Object
	_, err = m.fanOut(func(i int) (e error) {
		objs[i], e = rs[i].Resolve(name, cred)
		return e
	})
	if err != nil {
		return nil, err
	}
	f1, _ := objs[0].(fsys.File)
	f2, _ := objs[1].(fsys.File)
	if f1 == nil && f2 == nil {
		// A directory: a view that funnels back through the layer, so
		// files found through it are mirrored files too.
		return m.Dir(name), nil
	}
	return m.fileFor(name, f1, f2), nil
}

// ListPath implements fsys.PathRoot: the primary's listing of path (the
// mirror's on failure), with files and directories re-resolved through the
// layer.
func (m *MirrorFS) ListPath(path string, cred naming.Credentials) ([]naming.Binding, error) {
	rs, err := m.both()
	if err != nil {
		return nil, err
	}
	var out []naming.Binding
	err = m.failOver(func(i int) error {
		ctx, err := naming.ContextAt(rs[i], path, cred)
		if err == nil {
			out, err = ctx.List(cred)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	for i := range out {
		name := out[i].Name
		if path != "" {
			name = path + "/" + name
		}
		if obj, rerr := m.Resolve(name, cred); rerr == nil {
			out[i].Object = obj
		}
	}
	return out, nil
}

// CreateContext implements naming.Context (directories on both replicas).
func (m *MirrorFS) CreateContext(name string, cred naming.Credentials) (naming.Context, error) {
	rs, err := m.both()
	if err != nil {
		return nil, err
	}
	err = m.mutate(func(i int) error {
		_, e := rs[i].CreateContext(name, cred)
		return e
	})
	if err != nil {
		return nil, err
	}
	return m.Dir(name), nil
}

// Resync rebuilds a replica that was dropped from the fan-out: the whole
// tree is copied from the surviving replica onto the healed one, cached
// file handles are re-resolved, and the replica rejoins the fan-out.
// Writes degraded while the replica was out are thereby reconciled. It is
// the operator's (or test's) signal that the fault is repaired — the layer
// cannot tell on its own that a dead link came back.
func (m *MirrorFS) Resync(cred naming.Credentials) error {
	rs, err := m.both()
	if err != nil {
		return err
	}
	var healed int
	switch h0, h1 := m.Health(); {
	case h0 && h1:
		return nil
	case h0:
		healed = 1
	case h1:
		healed = 0
	default:
		return fmt.Errorf("mirrorfs: resync: no healthy replica to copy from (%w)", fsys.ErrUnavailable)
	}
	src, dst := rs[1-healed], rs[healed]
	if err := copyTree(src, dst, "", cred); err != nil {
		return fmt.Errorf("mirrorfs: resync: %w", err)
	}
	// A true mirror also drops what the survivor no longer has: entries
	// removed while the replica was out would otherwise resurrect.
	if err := pruneTree(src, dst, "", cred); err != nil {
		return fmt.Errorf("mirrorfs: resync: prune: %w", err)
	}
	// Unlink-while-open orphans are invisible to the name-based copy:
	// their storage lives only behind retained handles. Rebuild each one
	// on the healed replica (or fail the resync loudly — rejoining the
	// fan-out without them would split-brain the retained handles).
	_, orphans := m.files.Snapshot()
	for _, f := range orphans {
		if err := f.reconcileOrphan(dst, healed, cred); err != nil {
			return fmt.Errorf("mirrorfs: resync: retained orphan %s: %w", f.Path(), err)
		}
	}
	m.health.Revive(healed)
	// Refresh replica handles: the healed side's old handles may refer to
	// files from before the fault (or be nil for files created during the
	// degradation).
	filed, _ := m.files.Snapshot()
	for name, f := range filed {
		var fresh [2]fsys.File
		for i, r := range rs {
			if obj, err := r.Resolve(name, cred); err == nil {
				fresh[i], _ = obj.(fsys.File)
			}
		}
		f.setCopies(fresh[0], fresh[1])
	}
	m.Resyncs.Inc()
	return nil
}

// reconcileOrphan rebuilds an unlinked-but-retained file on the healed
// replica: the content is copied from the surviving handle into a hidden
// temporary name, the new handle is retained once per outstanding upper
// retain, and the temporary name is removed again — leaving the healed
// replica with the same nlink-0, storage-live orphan the survivor holds.
func (f *mirrorFile) reconcileOrphan(dst fsys.StackableFS, dstIdx int, cred naming.Credentials) error {
	srcF, mirror := f.copies()
	if dstIdx == 0 {
		srcF = mirror
	}
	if srcF == nil {
		return fmt.Errorf("no surviving replica handle (%w)", fsys.ErrUnavailable)
	}
	tmp := fmt.Sprintf(".mirror-orphan-%d", f.backing)
	out, err := copyFile(srcF, dst, tmp, cred)
	if err != nil {
		return err
	}
	for i := int64(0); i < f.Retained(); i++ {
		fsys.Retain(out)
	}
	if err := dst.Remove(tmp, cred); err != nil {
		return fmt.Errorf("unlinking rebuilt orphan: %w", err)
	}
	f.hmu.Lock()
	if dstIdx == 0 {
		f.primary = out
	} else {
		f.mirror = out
	}
	f.hmu.Unlock()
	return nil
}

// pruneTree removes entries under prefix that dst has but src does not
// (files and directories deleted while the replica was out).
func pruneTree(src, dst fsys.StackableFS, prefix string, cred naming.Credentials) error {
	ctx, err := naming.ContextAt(dst, prefix, cred)
	if err != nil {
		return nil // nothing there to prune
	}
	bindings, err := ctx.List(cred)
	if err != nil {
		return err
	}
	for _, b := range bindings {
		path := b.Name
		if prefix != "" {
			path = prefix + "/" + b.Name
		}
		_, serr := src.Resolve(path, cred)
		if _, isCtx := b.Object.(naming.Context); isCtx {
			if serr != nil {
				if err := removeTree(dst, path, cred); err != nil {
					return err
				}
			} else if err := pruneTree(src, dst, path, cred); err != nil {
				return err
			}
			continue
		}
		if serr != nil {
			if err := dst.Remove(path, cred); err != nil {
				return fmt.Errorf("prune %s: %w", path, err)
			}
		}
	}
	return nil
}

// removeTree removes path and everything beneath it from dst.
func removeTree(dst fsys.StackableFS, path string, cred naming.Credentials) error {
	obj, err := dst.Resolve(path, cred)
	if err != nil {
		return nil
	}
	if ctx, ok := obj.(naming.Context); ok {
		bindings, err := ctx.List(cred)
		if err != nil {
			return err
		}
		for _, b := range bindings {
			if err := removeTree(dst, path+"/"+b.Name, cred); err != nil {
				return err
			}
		}
	}
	if err := dst.Remove(path, cred); err != nil {
		return fmt.Errorf("prune %s: %w", path, err)
	}
	return nil
}

// copyTree replicates the tree under prefix from src onto dst.
func copyTree(src, dst fsys.StackableFS, prefix string, cred naming.Credentials) error {
	ctx, err := naming.ContextAt(src, prefix, cred)
	if err != nil {
		return fmt.Errorf("copy %s: %w", prefix, err)
	}
	bindings, err := ctx.List(cred)
	if err != nil {
		return err
	}
	for _, b := range bindings {
		path := b.Name
		if prefix != "" {
			path = prefix + "/" + b.Name
		}
		switch o := b.Object.(type) {
		case fsys.File:
			if _, err := copyFile(o, dst, path, cred); err != nil {
				return fmt.Errorf("copy %s: %w", path, err)
			}
		case naming.Context:
			if _, err := dst.Resolve(path, cred); err != nil {
				if _, err := dst.CreateContext(path, cred); err != nil {
					return fmt.Errorf("mkdir %s: %w", path, err)
				}
			}
			if err := copyTree(src, dst, path, cred); err != nil {
				return err
			}
		}
	}
	return nil
}

// copyFile replicates one file's contents onto dst at path and returns the
// synced copy.
func copyFile(src fsys.File, dst fsys.StackableFS, path string, cred naming.Credentials) (fsys.File, error) {
	attrs, err := src.Stat()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, attrs.Length)
	if attrs.Length > 0 {
		if _, err := src.ReadAt(buf, 0); err != nil && !errors.Is(err, io.EOF) {
			return nil, err
		}
	}
	out, err := dst.Open(path, cred)
	if err != nil {
		out, err = dst.Create(path, cred)
		if err != nil {
			return nil, err
		}
	}
	if len(buf) > 0 {
		if _, err := out.WriteAt(buf, 0); err != nil {
			return nil, err
		}
	}
	if err := out.SetLength(attrs.Length); err != nil {
		return nil, err
	}
	return out, out.Sync()
}

// mirrorFile is a file replicated on two underlying file systems.
type mirrorFile struct {
	fsys.PathHandle
	fs      *MirrorFS
	backing uint64

	// hmu guards the replica handles, which Resync refreshes after
	// rebuilding a healed replica.
	hmu     sync.Mutex
	primary fsys.File // nil if the primary holds no copy
	mirror  fsys.File // nil if the mirror holds no copy
}

// copies snapshots the replica handles.
func (f *mirrorFile) copies() (primary, mirror fsys.File) {
	f.hmu.Lock()
	defer f.hmu.Unlock()
	return f.primary, f.mirror
}

// setCopies installs refreshed replica handles (Resync).
func (f *mirrorFile) setCopies(primary, mirror fsys.File) {
	f.hmu.Lock()
	f.primary, f.mirror = primary, mirror
	f.hmu.Unlock()
}

var (
	_ fsys.File             = (*mirrorFile)(nil)
	_ naming.ProxyWrappable = (*mirrorFile)(nil)
)

// WrapForChannel implements naming.ProxyWrappable.
func (f *mirrorFile) WrapForChannel(ch *spring.Channel) naming.Object {
	return fsys.NewFileProxy(ch, f)
}

// onCopy runs a file operation on one replica's copy of the file, if the
// replica holds one.
func onCopy(r fsys.File, op func(fsys.File) error) error {
	if r == nil {
		return errNoCopy
	}
	return op(r)
}

// readFrom runs op against the primary copy, failing over to the mirror.
func (f *mirrorFile) readFrom(op func(fsys.File) error) error {
	var c [2]fsys.File
	c[0], c[1] = f.copies()
	return f.fs.failOver(func(i int) error { return onCopy(c[i], op) })
}

// writeBoth fans the write out to the copy on every replica in the
// fan-out; it succeeds, counting the degradation, if one accepted it.
func (f *mirrorFile) writeBoth(op func(fsys.File) error) error {
	var c [2]fsys.File
	c[0], c[1] = f.copies()
	return f.fs.mutate(func(i int) error { return onCopy(c[i], op) })
}

// Retain implements fsys.HandleFile: the handle is held on both replicas.
func (f *mirrorFile) Retain() {
	f.fs.files.Retain(f)
	primary, mirror := f.copies()
	if primary != nil {
		fsys.Retain(primary)
	}
	if mirror != nil {
		fsys.Retain(mirror)
	}
}

// Release implements fsys.HandleFile.
func (f *mirrorFile) Release() error {
	f.fs.files.Release(f)
	primary, mirror := f.copies()
	var err error
	if primary != nil {
		err = fsys.Release(primary)
	}
	if mirror != nil {
		if e := fsys.Release(mirror); err == nil {
			err = e
		}
	}
	return err
}

// ReadAt implements fsys.File.
func (f *mirrorFile) ReadAt(p []byte, off int64) (int, error) {
	var n int
	var readErr error
	err := f.readFrom(func(r fsys.File) error {
		var e error
		n, e = r.ReadAt(p, off)
		if errors.Is(e, io.EOF) {
			readErr = e
			return nil // EOF is a result, not a replica failure
		}
		readErr = e
		return e
	})
	if err != nil {
		return n, err
	}
	return n, readErr
}

// WriteAt implements fsys.File.
func (f *mirrorFile) WriteAt(p []byte, off int64) (int, error) {
	err := f.writeBoth(func(r fsys.File) error {
		_, e := r.WriteAt(p, off)
		return e
	})
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

// Stat implements fsys.File.
func (f *mirrorFile) Stat() (fsys.Attributes, error) {
	var attrs fsys.Attributes
	err := f.readFrom(func(r fsys.File) error {
		var e error
		attrs, e = r.Stat()
		return e
	})
	return attrs, err
}

// Sync implements fsys.File.
func (f *mirrorFile) Sync() error {
	return f.writeBoth(func(r fsys.File) error { return r.Sync() })
}

// Bind implements vm.MemoryObject: the mirroring layer is the pager for
// its files (data differs in placement across replicas, so no lower cache
// channel can be shared).
func (f *mirrorFile) Bind(caller vm.CacheManager, access vm.Rights, offset, length vm.Offset) (vm.CacheRights, error) {
	rights, _, _ := f.fs.table.Bind(caller, f.backing, func() vm.PagerObject {
		return &fsys.FilePager{File: f, In: f.pageIn, Out: f.pageOut}
	})
	return rights, nil
}

// GetLength implements vm.MemoryObject.
func (f *mirrorFile) GetLength() (vm.Offset, error) {
	var l vm.Offset
	err := f.readFrom(func(r fsys.File) error {
		var e error
		l, e = r.GetLength()
		return e
	})
	return l, err
}

// SetLength implements vm.MemoryObject.
func (f *mirrorFile) SetLength(l vm.Offset) error {
	return f.writeBoth(func(r fsys.File) error { return r.SetLength(l) })
}

// pageIn and pageOut are the data movers of the pager serving mapped
// access to mirrored files.
func (f *mirrorFile) pageIn(offset, size vm.Offset, access vm.Rights) ([]byte, error) {
	out := make([]byte, size)
	err := f.readFrom(func(r fsys.File) error {
		_, e := r.ReadAt(out, offset)
		if errors.Is(e, io.EOF) {
			return nil
		}
		return e
	})
	return out, err
}

func (f *mirrorFile) pageOut(offset, size vm.Offset, data []byte) error {
	return f.writeBoth(func(r fsys.File) error {
		_, e := r.WriteAt(data, offset)
		return e
	})
}
