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
	"strings"
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
	name   string
	domain *spring.Domain
	table  *fsys.ConnectionTable

	mu          sync.Mutex
	replicas    []fsys.StackableFS // exactly 2 once stacked
	healthy     [2]bool            // replica i is in the fan-out
	files       map[string]*mirrorFile
	orphans     map[*mirrorFile]bool // unlinked while retained (nlink 0, storage live)
	nextBacking atomic.Uint64

	// Failovers counts reads served by the mirror after a primary
	// failure; Degraded counts writes that reached only one replica;
	// Resyncs counts successful replica resynchronisations.
	Failovers stats.Counter
	Degraded  stats.Counter
	Resyncs   stats.Counter
}

var (
	_ fsys.StackableFS      = (*MirrorFS)(nil)
	_ fsys.PathRoot         = (*MirrorFS)(nil)
	_ naming.ProxyWrappable = (*MirrorFS)(nil)
)

// New creates a mirroring layer served by domain.
func New(domain *spring.Domain, name string) *MirrorFS {
	return &MirrorFS{
		name:    name,
		domain:  domain,
		table:   fsys.NewConnectionTable(domain),
		files:   make(map[string]*mirrorFile),
		orphans: make(map[*mirrorFile]bool),
	}
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

// FSName implements fsys.FS.
func (m *MirrorFS) FSName() string { return m.name }

// WrapForChannel implements naming.ProxyWrappable.
func (m *MirrorFS) WrapForChannel(ch *spring.Channel) naming.Object {
	return fsys.WrapStackable(ch, m)
}

// StackOn implements fsys.StackableFS; it must be called exactly twice,
// once per replica (primary first).
func (m *MirrorFS) StackOn(under fsys.StackableFS) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.replicas) >= 2 {
		return fsys.ErrAlreadyStacked
	}
	m.healthy[len(m.replicas)] = true
	m.replicas = append(m.replicas, under)
	return nil
}

// replicaHealthy reports whether replica i (0 = primary) is in the
// fan-out.
func (m *MirrorFS) replicaHealthy(i int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.healthy[i]
}

// noteError marks replica i unhealthy when err is a transport-level
// failure (a timed-out or dead DFS link): subsequent operations skip the
// replica instead of each paying the timeout, until Resync restores it.
// Data-level errors (ErrNotFound, io.EOF, ...) do not indict the replica.
func (m *MirrorFS) noteError(i int, err error) {
	if err == nil || !errors.Is(err, fsys.ErrUnavailable) {
		return
	}
	m.mu.Lock()
	m.healthy[i] = false
	m.mu.Unlock()
}

// Health returns the fan-out state of (primary, mirror).
func (m *MirrorFS) Health() (primary, mirror bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.healthy[0], m.healthy[1]
}

// MarkUnhealthy removes replica i from the fan-out (test/operator hook;
// the normal path is noteError observing fsys.ErrUnavailable).
func (m *MirrorFS) MarkUnhealthy(i int) {
	m.mu.Lock()
	m.healthy[i] = false
	m.mu.Unlock()
}

// both returns the two replicas or an error if the layer is not fully
// stacked.
func (m *MirrorFS) both() (fsys.StackableFS, fsys.StackableFS, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.replicas) < 2 {
		return nil, nil, fmt.Errorf("mirrorfs: %w: need two underlying file systems, have %d",
			fsys.ErrNotStacked, len(m.replicas))
	}
	return m.replicas[0], m.replicas[1], nil
}

// fileFor returns the canonical mirrored file for a path.
func (m *MirrorFS) fileFor(name string, primary, mirror fsys.File) *mirrorFile {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, ok := m.files[name]; ok {
		return f
	}
	f := &mirrorFile{
		fs:      m,
		name:    name,
		primary: primary,
		mirror:  mirror,
		backing: m.nextBacking.Add(1),
	}
	m.files[name] = f
	return f
}

// Create implements fsys.FS: the file is created on both replicas. If one
// replica is down the create degrades to the survivor (like writes do)
// rather than failing.
func (m *MirrorFS) Create(name string, cred naming.Credentials) (fsys.File, error) {
	r1, r2, err := m.both()
	if err != nil {
		return nil, err
	}
	var f1, f2 fsys.File
	err1 := fmt.Errorf("mirrorfs: primary out of fan-out (%w)", fsys.ErrUnavailable)
	err2 := fmt.Errorf("mirrorfs: mirror out of fan-out (%w)", fsys.ErrUnavailable)
	if m.replicaHealthy(0) {
		f1, err1 = r1.Create(name, cred)
		m.noteError(0, err1)
	}
	if m.replicaHealthy(1) {
		f2, err2 = r2.Create(name, cred)
		m.noteError(1, err2)
	}
	if err1 != nil && err2 != nil {
		return nil, fmt.Errorf("mirrorfs: create failed on both replicas: %w", err1)
	}
	if err1 != nil || err2 != nil {
		m.Degraded.Inc()
	}
	return m.fileFor(name, f1, f2), nil
}

// Open implements fsys.FS.
func (m *MirrorFS) Open(name string, cred naming.Credentials) (fsys.File, error) {
	obj, err := m.Resolve(name, cred)
	if err != nil {
		return nil, err
	}
	return fsys.AsFile(obj)
}

// Remove implements fsys.FS: removed from both replicas; the first error
// wins but both removals are attempted.
func (m *MirrorFS) Remove(name string, cred naming.Credentials) error {
	r1, r2, err := m.both()
	if err != nil {
		return err
	}
	err1 := r1.Remove(name, cred)
	err2 := r2.Remove(name, cred)
	m.mu.Lock()
	f := m.files[name]
	delete(m.files, name)
	m.mu.Unlock()
	// A file unlinked while retained handles are outstanding keeps its
	// storage (nlink 0) on each replica. Track the wrapper so Resync can
	// reconstruct the orphan on a rebuilt replica — the name-based tree
	// copy cannot see it.
	if f != nil && (err1 == nil || err2 == nil) && f.retainCount() > 0 {
		m.mu.Lock()
		m.orphans[f] = true
		m.mu.Unlock()
	}
	if err1 != nil {
		return err1
	}
	return err2
}

// Rename implements fsys.FS: renamed on both replicas (first error wins,
// both attempted; a split outcome degrades until Resync reconciles it).
// The path-keyed wrapper map is re-keyed, dropping any overwritten
// destination's wrapper.
func (m *MirrorFS) Rename(oldname, newname string, cred naming.Credentials) error {
	r1, r2, err := m.both()
	if err != nil {
		return err
	}
	if oldname == newname {
		_, err := m.Resolve(oldname, cred)
		return err
	}
	err1 := r1.Rename(oldname, newname, cred)
	err2 := r2.Rename(oldname, newname, cred)
	if err1 == nil || err2 == nil {
		m.mu.Lock()
		if dest, ok := m.files[newname]; ok && dest.retainCount() > 0 {
			// Rename-over an open destination: same orphan shape as
			// Remove (see above).
			m.orphans[dest] = true
		}
		delete(m.files, newname)
		if f, ok := m.files[oldname]; ok {
			delete(m.files, oldname)
			f.rename(newname)
			m.files[newname] = f
		}
		m.mu.Unlock()
	}
	if err1 != nil {
		return err1
	}
	return err2
}

// SyncFS implements fsys.FS.
func (m *MirrorFS) SyncFS() error {
	r1, r2, err := m.both()
	if err != nil {
		return err
	}
	if err := r1.SyncFS(); err != nil {
		return err
	}
	return r2.SyncFS()
}

// Resolve implements naming.Context. The file must exist on at least one
// replica; a missing replica copy degrades rather than fails.
func (m *MirrorFS) Resolve(name string, cred naming.Credentials) (naming.Object, error) {
	r1, r2, err := m.both()
	if err != nil {
		return nil, err
	}
	obj1, err1 := r1.Resolve(name, cred)
	obj2, err2 := r2.Resolve(name, cred)
	if err1 != nil && err2 != nil {
		return nil, err1
	}
	f1, _ := obj1.(fsys.File)
	f2, _ := obj2.(fsys.File)
	if f1 == nil && f2 == nil {
		// A directory: a view that funnels back through the layer, so
		// files found through it are mirrored files too.
		return &fsys.PathDir{Root: m, Path: strings.Trim(name, "/")}, nil
	}
	return m.fileFor(name, f1, f2), nil
}

// Bind implements naming.Context.
func (m *MirrorFS) Bind(name string, obj naming.Object, cred naming.Credentials) error {
	return fmt.Errorf("mirrorfs: bind is not supported; create files through the layer")
}

// Unbind implements naming.Context.
func (m *MirrorFS) Unbind(name string, cred naming.Credentials) error {
	return m.Remove(name, cred)
}

// List implements naming.Context.
func (m *MirrorFS) List(cred naming.Credentials) ([]naming.Binding, error) {
	return m.ListPath("", cred)
}

// ListPath implements fsys.PathRoot: the primary's listing of path (the
// mirror's on failure), with files and directories re-resolved through the
// layer.
func (m *MirrorFS) ListPath(path string, cred naming.Credentials) ([]naming.Binding, error) {
	r1, r2, err := m.both()
	if err != nil {
		return nil, err
	}
	out, err := listAt(r1, path, cred)
	if err != nil {
		m.Failovers.Inc()
		out, err = listAt(r2, path, cred)
	}
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

// listAt lists the directory at path ("" = the root) of one replica.
func listAt(r fsys.StackableFS, path string, cred naming.Credentials) ([]naming.Binding, error) {
	ctx, err := naming.ContextAt(r, path, cred)
	if err != nil {
		return nil, err
	}
	return ctx.List(cred)
}

// CreateContext implements naming.Context (directories on both replicas).
func (m *MirrorFS) CreateContext(name string, cred naming.Credentials) (naming.Context, error) {
	r1, r2, err := m.both()
	if err != nil {
		return nil, err
	}
	if _, err := r1.CreateContext(name, cred); err != nil {
		return nil, err
	}
	if _, err := r2.CreateContext(name, cred); err != nil {
		return nil, fmt.Errorf("mirrorfs: mkdir on mirror: %w", err)
	}
	return &fsys.PathDir{Root: m, Path: strings.Trim(name, "/")}, nil
}

// Resync rebuilds a replica that was dropped from the fan-out: the whole
// tree is copied from the surviving replica onto the healed one, cached
// file handles are re-resolved, and the replica rejoins the fan-out.
// Writes degraded while the replica was out are thereby reconciled. It is
// the operator's (or test's) signal that the fault is repaired — the layer
// cannot tell on its own that a dead link came back.
func (m *MirrorFS) Resync(cred naming.Credentials) error {
	r1, r2, err := m.both()
	if err != nil {
		return err
	}
	m.mu.Lock()
	h0, h1 := m.healthy[0], m.healthy[1]
	m.mu.Unlock()
	var src, dst fsys.StackableFS
	var healed int
	switch {
	case h0 && h1:
		return nil
	case h0:
		src, dst, healed = r1, r2, 1
	case h1:
		src, dst, healed = r2, r1, 0
	default:
		return fmt.Errorf("mirrorfs: resync: no healthy replica to copy from (%w)", fsys.ErrUnavailable)
	}
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
	m.mu.Lock()
	orphans := make([]*mirrorFile, 0, len(m.orphans))
	for f := range m.orphans {
		orphans = append(orphans, f)
	}
	m.mu.Unlock()
	srcIdx := 1 - healed
	for _, f := range orphans {
		if err := f.reconcileOrphan(srcIdx, dst, healed, cred); err != nil {
			return fmt.Errorf("mirrorfs: resync: retained orphan %s: %w", f.pathName(), err)
		}
	}
	m.mu.Lock()
	m.healthy[healed] = true
	files := make(map[string]*mirrorFile, len(m.files))
	for name, f := range m.files {
		files[name] = f
	}
	m.mu.Unlock()
	// Refresh replica handles: the healed side's old handles may refer to
	// files from before the fault (or be nil for files created during the
	// degradation).
	for name, f := range files {
		var p, q fsys.File
		if obj, err := r1.Resolve(name, cred); err == nil {
			p, _ = obj.(fsys.File)
		}
		if obj, err := r2.Resolve(name, cred); err == nil {
			q, _ = obj.(fsys.File)
		}
		f.setCopies(p, q)
	}
	m.Resyncs.Inc()
	return nil
}

// reconcileOrphan rebuilds an unlinked-but-retained file on the healed
// replica: the content is copied from the surviving handle into a hidden
// temporary name, the new handle is retained once per outstanding upper
// retain, and the temporary name is removed again — leaving the healed
// replica with the same nlink-0, storage-live orphan the survivor holds.
func (f *mirrorFile) reconcileOrphan(srcIdx int, dst fsys.StackableFS, dstIdx int, cred naming.Credentials) error {
	f.hmu.Lock()
	handles := [2]fsys.File{f.primary, f.mirror}
	f.hmu.Unlock()
	srcF := handles[srcIdx]
	if srcF == nil {
		return fmt.Errorf("no surviving replica handle (%w)", fsys.ErrUnavailable)
	}
	attrs, err := srcF.Stat()
	if err != nil {
		return fmt.Errorf("reading survivor: %w", err)
	}
	buf := make([]byte, attrs.Length)
	if attrs.Length > 0 {
		if _, err := srcF.ReadAt(buf, 0); err != nil && !errors.Is(err, io.EOF) {
			return fmt.Errorf("reading survivor: %w", err)
		}
	}
	tmp := fmt.Sprintf(".mirror-orphan-%d", f.backing)
	out, err := dst.Create(tmp, cred)
	if err != nil {
		return err
	}
	if len(buf) > 0 {
		if _, err := out.WriteAt(buf, 0); err != nil {
			return err
		}
	}
	if err := out.SetLength(attrs.Length); err != nil {
		return err
	}
	if err := out.Sync(); err != nil {
		return err
	}
	for i := int64(0); i < f.retainCount(); i++ {
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
			if err := copyFile(o, dst, path, cred); err != nil {
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

// copyFile replicates one file's contents onto dst at path.
func copyFile(src fsys.File, dst fsys.StackableFS, path string, cred naming.Credentials) error {
	attrs, err := src.Stat()
	if err != nil {
		return err
	}
	buf := make([]byte, attrs.Length)
	if attrs.Length > 0 {
		if _, err := src.ReadAt(buf, 0); err != nil && !errors.Is(err, io.EOF) {
			return err
		}
	}
	out, err := dst.Open(path, cred)
	if err != nil {
		out, err = dst.Create(path, cred)
		if err != nil {
			return err
		}
	}
	if len(buf) > 0 {
		if _, err := out.WriteAt(buf, 0); err != nil {
			return err
		}
	}
	if err := out.SetLength(attrs.Length); err != nil {
		return err
	}
	return out.Sync()
}

// mirrorFile is a file replicated on two underlying file systems.
type mirrorFile struct {
	fs      *MirrorFS
	name    string
	backing uint64

	// retained counts outstanding Retains (open handles holding the
	// file's storage past unlink).
	retained atomic.Int64

	// hmu guards the replica handles, which Resync refreshes after
	// rebuilding a healed replica.
	hmu     sync.Mutex
	primary fsys.File // may be nil if the primary copy is missing
	mirror  fsys.File // may be nil if the mirror copy is missing
}

// retainCount reports the outstanding Retain balance.
func (f *mirrorFile) retainCount() int64 { return f.retained.Load() }

// copies snapshots the replica handles.
func (f *mirrorFile) copies() (primary, mirror fsys.File) {
	f.hmu.Lock()
	defer f.hmu.Unlock()
	return f.primary, f.mirror
}

// setCopies installs refreshed replica handles (Resync).
func (f *mirrorFile) setCopies(primary, mirror fsys.File) {
	f.hmu.Lock()
	f.primary = primary
	f.mirror = mirror
	f.hmu.Unlock()
}

// rename records the file's new path after a Rename re-keyed the map.
func (f *mirrorFile) rename(name string) {
	f.hmu.Lock()
	f.name = name
	f.hmu.Unlock()
}

// pathName returns the file's current path (for diagnostics).
func (f *mirrorFile) pathName() string {
	f.hmu.Lock()
	defer f.hmu.Unlock()
	return f.name
}

var (
	_ fsys.File             = (*mirrorFile)(nil)
	_ naming.ProxyWrappable = (*mirrorFile)(nil)
)

// WrapForChannel implements naming.ProxyWrappable.
func (f *mirrorFile) WrapForChannel(ch *spring.Channel) naming.Object {
	return fsys.NewFileProxy(ch, f)
}

// readFrom runs op against the primary, failing over to the mirror. A
// replica marked unhealthy is skipped outright so reads stop paying a dead
// link's timeout on every call.
func (f *mirrorFile) readFrom(op func(fsys.File) error) error {
	primary, mirror := f.copies()
	if primary != nil && f.fs.replicaHealthy(0) {
		err := op(primary)
		if err == nil {
			return nil
		}
		f.fs.noteError(0, err)
	}
	if mirror == nil || !f.fs.replicaHealthy(1) {
		return fmt.Errorf("mirrorfs: %s: both replicas unavailable (%w)", f.pathName(), fsys.ErrUnavailable)
	}
	f.fs.Failovers.Inc()
	err := op(mirror)
	if err != nil {
		f.fs.noteError(1, err)
	}
	return err
}

// writeBoth fans the write out to every healthy replica; it succeeds if at
// least one replica accepted the write, counting the degradation. A
// replica whose DFS calls time out is marked unhealthy by noteError and
// dropped from the fan-out until Resync heals it.
func (f *mirrorFile) writeBoth(op func(fsys.File) error) error {
	primary, mirror := f.copies()
	ok := 0
	var firstErr error
	apply := func(i int, r fsys.File) {
		if r == nil || !f.fs.replicaHealthy(i) {
			return
		}
		if err := op(r); err != nil {
			f.fs.noteError(i, err)
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		ok++
	}
	apply(0, primary)
	apply(1, mirror)
	switch {
	case ok == 0 && firstErr != nil:
		return firstErr
	case ok == 0:
		return fmt.Errorf("mirrorfs: %s: no healthy replica (%w)", f.pathName(), fsys.ErrUnavailable)
	case ok < 2:
		f.fs.Degraded.Inc()
	}
	return nil
}

// Retain implements fsys.HandleFile: the handle is held on both replicas.
func (f *mirrorFile) Retain() {
	f.retained.Add(1)
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
	if f.retained.Add(-1) <= 0 {
		f.fs.mu.Lock()
		delete(f.fs.orphans, f)
		f.fs.mu.Unlock()
	}
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
