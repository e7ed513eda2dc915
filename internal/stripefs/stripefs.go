// Package stripefs implements a parallel striping file system layer: one
// logical file is split into fixed-size stripes distributed round-robin
// (RAID-0) over N underlying data file systems, the way Lustre spreads a
// file over its OSTs. Aggregate bandwidth scales with the number of data
// servers because reads and writes decompose into per-server extents that
// fan out concurrently through a bounded worker pool.
//
// The layer is stacked on one *metadata* file system plus N *data* file
// systems (StackOn is called N+1 times; the first call supplies the
// metadata FS). The metadata FS holds the name space and one small layout
// file per striped file — object id, stripe size, stripe count — committed
// crash-atomically (write to a hidden temporary, sync, rename over the
// final name, the same idiom snapfs uses for its manifest). Data operations
// bypass the metadata FS entirely: stripe k of a file lives in object
// ".sobj-<id>" on data server k mod N, and each object rides that server's
// own stack — pager, coherency, DFS retry — unchanged, so writers to
// disjoint stripes never contend on one whole-file coherency token.
//
// Degradation mirrors mirrorfs: a data server whose operations fail with
// fsys.ErrUnavailable (a dead DFS link, a partition) is dropped from the
// fan-out and subsequent operations touching its stripes fail fast while
// other stripes keep working. Revive puts it back once the operator has
// repaired the fault. A data server may itself be a mirrorfs stack, giving
// per-stripe failover below the striping layer.
package stripefs

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/stats"
	"springfs/internal/vm"
)

const (
	// DefaultStripeSize is the default stripe width. It must be a multiple
	// of the page size so a page never straddles two servers.
	DefaultStripeSize = 64 << 10
	// DefaultWorkers bounds the per-operation fan-out concurrency.
	DefaultWorkers = 8

	// layoutTmpPrefix names in-flight layout commits in the metadata root.
	layoutTmpPrefix = ".stripe-tmp-"
	// objPrefix names stripe objects on the data servers.
	objPrefix = ".sobj-"
	// layoutMagic is the first line of every layout file.
	layoutMagic = "stripefs layout v1"
	// maxLayoutSize bounds how much of a metadata file readLayout parses.
	maxLayoutSize = 4096
)

// Observability: registered eagerly so `springsh stats` lists them at zero.
var (
	stripeLayouts  = stats.Default.Counter("stripe.layout.commits")
	stripeObjects  = stats.Default.Counter("stripe.objects.created")
	stripeFanOps   = stats.Default.Counter("stripe.fanout.ops")
	stripeFanCalls = stats.Default.Counter("stripe.fanout.calls")
	stripeFanWide  = stats.Default.Counter("stripe.fanout.wide")
	stripeDegraded = stats.Default.Counter("stripe.degraded")
	stripeSwept    = stats.Default.Counter("stripe.swept")

	opRead  = stats.NewOp("stripe.read", stats.BoundaryDirect)
	opWrite = stats.NewOp("stripe.write", stats.BoundaryDirect)
)

// errNoObject is the internal "this server holds no data for the file yet"
// result: the stripes it owns read as zeros (a hole).
var errNoObject = errors.New("stripefs: stripe object absent")

// isNotFound reports whether err means "no object bound at that name".
// Local stacks return naming.ErrNotFound; DFS flattens remote errors to
// strings, so fall back to matching the sentinel's message.
func isNotFound(err error) bool {
	if errors.Is(err, naming.ErrNotFound) {
		return true
	}
	return err != nil && strings.Contains(err.Error(), naming.ErrNotFound.Error())
}

// Options configure a striping layer instance.
type Options struct {
	// StripeSize is the stripe width in bytes (default DefaultStripeSize).
	// It must be a positive multiple of vm.PageSize.
	StripeSize int64
	// Workers bounds the fan-out worker pool (default DefaultWorkers).
	Workers int
}

// StripeFS is an instance of the striping layer.
type StripeFS struct {
	name       string
	domain     *spring.Domain
	table      *fsys.ConnectionTable
	stripeSize int64
	workers    int

	mu          sync.Mutex
	meta        fsys.StackableFS
	servers     []fsys.StackableFS
	healthy     []bool
	files       map[string]*stripeFile
	orphans     map[*stripeFile]bool // unlinked while retained (nlink 0, storage live)
	swept       bool
	nextBacking atomic.Uint64
}

var (
	_ fsys.StackableFS      = (*StripeFS)(nil)
	_ fsys.PathRoot         = (*StripeFS)(nil)
	_ naming.ProxyWrappable = (*StripeFS)(nil)
)

// New creates a striping layer served by domain.
func New(domain *spring.Domain, name string, opts Options) (*StripeFS, error) {
	size := opts.StripeSize
	if size == 0 {
		size = DefaultStripeSize
	}
	if size <= 0 || size%vm.PageSize != 0 {
		return nil, fmt.Errorf("stripefs: stripe size %d is not a positive multiple of the page size (%d)",
			size, vm.PageSize)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = DefaultWorkers
	}
	return &StripeFS{
		name:       name,
		domain:     domain,
		table:      fsys.NewConnectionTable(domain),
		stripeSize: size,
		workers:    workers,
		files:      make(map[string]*stripeFile),
		orphans:    make(map[*stripeFile]bool),
	}, nil
}

// NewCreator returns a stackable_fs_creator for striping layers. The config
// map understands "name", "stripe_size" (bytes), and "workers".
func NewCreator(domain *spring.Domain) fsys.Creator {
	var n atomic.Uint64
	return fsys.CreatorFunc(func(config map[string]string) (fsys.StackableFS, error) {
		name := config["name"]
		if name == "" {
			name = fmt.Sprintf("stripefs%d", n.Add(1))
		}
		var opts Options
		if v := config["stripe_size"]; v != "" {
			size, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("stripefs: bad stripe_size %q: %w", v, err)
			}
			opts.StripeSize = size
		}
		if v := config["workers"]; v != "" {
			w, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("stripefs: bad workers %q: %w", v, err)
			}
			opts.Workers = w
		}
		return New(domain, name, opts)
	})
}

// FSName implements fsys.FS.
func (s *StripeFS) FSName() string { return s.name }

// WrapForChannel implements naming.ProxyWrappable.
func (s *StripeFS) WrapForChannel(ch *spring.Channel) naming.Object {
	return fsys.WrapStackable(ch, s)
}

// StripeSize returns the configured stripe width.
func (s *StripeFS) StripeSize() int64 { return s.stripeSize }

// StackOn implements fsys.StackableFS. The first call supplies the metadata
// file system; every subsequent call appends a data server.
func (s *StripeFS) StackOn(under fsys.StackableFS) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.meta == nil {
		s.meta = under
		return nil
	}
	s.servers = append(s.servers, under)
	s.healthy = append(s.healthy, true)
	return nil
}

// stacked returns the metadata FS and the data server list, or an error if
// the layer is not fully stacked (one metadata FS plus at least one data
// server).
func (s *StripeFS) stacked() (fsys.StackableFS, []fsys.StackableFS, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.meta == nil || len(s.servers) == 0 {
		return nil, nil, fmt.Errorf("stripefs: %w: need a metadata FS plus at least one data server",
			fsys.ErrNotStacked)
	}
	return s.meta, s.servers, nil
}

// serverFS returns data server k for a file striped over count servers.
func (s *StripeFS) serverFS(k, count int) (fsys.StackableFS, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if count > len(s.servers) {
		return nil, fmt.Errorf("stripefs: layout striped over %d servers but only %d are stacked",
			count, len(s.servers))
	}
	if k < 0 || k >= count {
		return nil, fmt.Errorf("stripefs: server index %d out of range (%d servers)", k, count)
	}
	return s.servers[k], nil
}

// serverHealthy reports whether data server k is in the fan-out.
func (s *StripeFS) serverHealthy(k int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return k >= 0 && k < len(s.healthy) && s.healthy[k]
}

// noteError marks data server k unhealthy when err is a transport-level
// failure (a timed-out or dead DFS link): subsequent operations touching
// its stripes fail fast instead of each paying the timeout, until Revive
// restores it. Data-level errors (not-found, io.EOF, ...) do not indict the
// server.
func (s *StripeFS) noteError(k int, err error) {
	if err == nil || !errors.Is(err, fsys.ErrUnavailable) {
		return
	}
	s.mu.Lock()
	if k >= 0 && k < len(s.healthy) {
		s.healthy[k] = false
	}
	s.mu.Unlock()
}

// Health returns the fan-out state of each data server.
func (s *StripeFS) Health() []bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]bool, len(s.healthy))
	copy(out, s.healthy)
	return out
}

// MarkUnhealthy removes data server k from the fan-out (test/operator hook;
// the normal path is noteError observing fsys.ErrUnavailable).
func (s *StripeFS) MarkUnhealthy(k int) {
	s.mu.Lock()
	if k >= 0 && k < len(s.healthy) {
		s.healthy[k] = false
	}
	s.mu.Unlock()
}

// Revive puts data server k back in the fan-out. It is the operator's (or
// test's) signal that the fault is repaired — the layer cannot tell on its
// own that a dead link came back. Unlike mirrorfs there is nothing to
// resync: each stripe has exactly one home, so a server that missed writes
// while it was out simply failed them (the layer never pretends a degraded
// write succeeded).
func (s *StripeFS) Revive(k int) {
	s.mu.Lock()
	if k >= 0 && k < len(s.healthy) {
		s.healthy[k] = true
	}
	s.mu.Unlock()
}

// ServerStatus describes one data server for diagnostics.
type ServerStatus struct {
	Name    string
	Healthy bool
}

// Status is a point-in-time description of the layer (springsh's `stripe`
// verb renders it).
type Status struct {
	StripeSize int64
	Workers    int
	Meta       string
	Servers    []ServerStatus
}

// StripeStatus reports the layer's configuration and per-server health.
func (s *StripeFS) StripeStatus() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{StripeSize: s.stripeSize, Workers: s.workers}
	if s.meta != nil {
		st.Meta = s.meta.FSName()
	}
	for i, srv := range s.servers {
		st.Servers = append(st.Servers, ServerStatus{Name: srv.FSName(), Healthy: s.healthy[i]})
	}
	return st
}

// layout is the per-file striping record kept on the metadata FS.
type layout struct {
	objID      uint64
	stripeSize int64
	count      int
}

// objName returns the stripe object name for this file (the same name on
// every data server; each server holds its own object).
func (l layout) objName() string {
	return fmt.Sprintf("%s%016x", objPrefix, l.objID)
}

// parseObjName extracts the object id from a stripe object name.
func parseObjName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, objPrefix) {
		return 0, false
	}
	id, err := strconv.ParseUint(name[len(objPrefix):], 16, 64)
	if err != nil {
		return 0, false
	}
	return id, true
}

// encode renders the layout in its on-disk text form.
func (l layout) encode() []byte {
	return []byte(fmt.Sprintf("%s\nobject %016x\nstripe_size %d\nstripe_count %d\n",
		layoutMagic, l.objID, l.stripeSize, l.count))
}

// parseLayout decodes the on-disk text form.
func parseLayout(b []byte) (layout, error) {
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) != 4 || lines[0] != layoutMagic {
		return layout{}, fmt.Errorf("stripefs: not a layout file")
	}
	var l layout
	for _, ln := range lines[1:] {
		key, val, ok := strings.Cut(ln, " ")
		if !ok {
			return layout{}, fmt.Errorf("stripefs: malformed layout line %q", ln)
		}
		var err error
		switch key {
		case "object":
			l.objID, err = strconv.ParseUint(val, 16, 64)
		case "stripe_size":
			l.stripeSize, err = strconv.ParseInt(val, 10, 64)
		case "stripe_count":
			l.count, err = strconv.Atoi(val)
		default:
			err = fmt.Errorf("unknown key")
		}
		if err != nil {
			return layout{}, fmt.Errorf("stripefs: malformed layout line %q", ln)
		}
	}
	if l.stripeSize <= 0 || l.stripeSize%vm.PageSize != 0 || l.count <= 0 {
		return layout{}, fmt.Errorf("stripefs: implausible layout (stripe_size %d, stripe_count %d)",
			l.stripeSize, l.count)
	}
	return l, nil
}

// readLayout reads and decodes the layout held in a metadata file.
func readLayout(f fsys.File) (layout, error) {
	attrs, err := f.Stat()
	if err != nil {
		return layout{}, err
	}
	if attrs.Length <= 0 || attrs.Length > maxLayoutSize {
		return layout{}, fmt.Errorf("stripefs: implausible layout file size %d", attrs.Length)
	}
	buf := make([]byte, attrs.Length)
	n, err := f.ReadAt(buf, 0)
	if err != nil && !errors.Is(err, io.EOF) {
		return layout{}, err
	}
	return parseLayout(buf[:n])
}

// newObjID draws a fresh random object id. Randomness (rather than a
// counter) keeps ids unique across remounts of the same metadata volume.
func newObjID() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("stripefs: reading random object id: %v", err))
	}
	return binary.BigEndian.Uint64(b[:])
}

// commitLayout writes the layout crash-atomically: create a hidden
// temporary in the metadata root, write, sync, then rename over the final
// name. A crash before the rename leaves only the temporary (swept on the
// next mount); a crash after leaves the complete layout.
func (s *StripeFS) commitLayout(meta fsys.StackableFS, name string, l layout, cred naming.Credentials) error {
	tmp := fmt.Sprintf("%s%016x", layoutTmpPrefix, l.objID)
	tf, err := meta.Create(tmp, cred)
	if err != nil {
		return fmt.Errorf("stripefs: creating layout: %w", err)
	}
	if _, err := tf.WriteAt(l.encode(), 0); err != nil {
		_ = meta.Remove(tmp, cred)
		return fmt.Errorf("stripefs: writing layout: %w", err)
	}
	if err := tf.Sync(); err != nil {
		_ = meta.Remove(tmp, cred)
		return fmt.Errorf("stripefs: syncing layout: %w", err)
	}
	if err := meta.Rename(tmp, name, cred); err != nil {
		_ = meta.Remove(tmp, cred)
		return fmt.Errorf("stripefs: committing layout: %w", err)
	}
	stripeLayouts.Inc()
	return nil
}

// layoutAt resolves name on the metadata FS and decodes its layout.
func (s *StripeFS) layoutAt(meta fsys.StackableFS, name string, cred naming.Credentials) (layout, error) {
	obj, err := meta.Resolve(name, cred)
	if err != nil {
		return layout{}, err
	}
	mf, err := fsys.AsFile(obj)
	if err != nil {
		return layout{}, err
	}
	return readLayout(mf)
}

// sweepOnce garbage-collects debris from crashed commits, once per mount:
// stale ".stripe-tmp-" layouts in the metadata root, and stripe objects on
// the data servers whose id no layout references (a create that committed
// objects but crashed before the layout rename).
func (s *StripeFS) sweepOnce(cred naming.Credentials) {
	s.mu.Lock()
	if s.swept || s.meta == nil || len(s.servers) == 0 {
		s.mu.Unlock()
		return
	}
	s.swept = true
	meta := s.meta
	servers := make([]fsys.StackableFS, len(s.servers))
	copy(servers, s.servers)
	healthy := make([]bool, len(s.healthy))
	copy(healthy, s.healthy)
	s.mu.Unlock()

	if bindings, err := meta.List(cred); err == nil {
		for _, b := range bindings {
			if strings.HasPrefix(b.Name, layoutTmpPrefix) {
				if meta.Remove(b.Name, cred) == nil {
					stripeSwept.Inc()
				}
			}
		}
	}
	ids := make(map[uint64]bool)
	collectLayoutIDs(meta, cred, ids)
	for k, srv := range servers {
		if !healthy[k] {
			continue
		}
		bindings, err := srv.List(cred)
		if err != nil {
			s.noteError(k, err)
			continue
		}
		for _, b := range bindings {
			if id, ok := parseObjName(b.Name); ok && !ids[id] {
				if srv.Remove(b.Name, cred) == nil {
					stripeSwept.Inc()
				}
			}
		}
	}
}

// collectLayoutIDs walks the metadata tree accumulating every referenced
// object id. Errors are ignored: an unreadable entry just keeps its
// objects (sweeping is conservative).
func collectLayoutIDs(ctx naming.Context, cred naming.Credentials, ids map[uint64]bool) {
	bindings, err := ctx.List(cred)
	if err != nil {
		return
	}
	for _, b := range bindings {
		if strings.HasPrefix(b.Name, layoutTmpPrefix) {
			continue
		}
		if f, ok := b.Object.(fsys.File); ok {
			if l, err := readLayout(f); err == nil {
				ids[l.objID] = true
			}
			continue
		}
		if sub, ok := b.Object.(naming.Context); ok {
			collectLayoutIDs(sub, cred, ids)
		}
	}
}

// fileFor returns the canonical striped file wrapper for a path: one
// wrapper per path, so retained handles, the append fallback's per-file
// lock, and the pager connection all share identity.
func (s *StripeFS) fileFor(name string, l layout, metaFile fsys.File) *stripeFile {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.files[name]; ok {
		return f
	}
	f := &stripeFile{
		fs:      s,
		name:    name,
		lay:     l,
		meta:    metaFile,
		backing: s.nextBacking.Add(1),
		locks:   make([]sync.Mutex, l.count),
		objs:    make([]fsys.File, l.count),
	}
	s.files[name] = f
	return f
}

// Create implements fsys.FS: a fresh layout is committed on the metadata
// FS; stripe objects are created lazily on first write to each server.
// Creating a name that already holds a striped file returns the existing
// file (the POSIX O_CREAT-without-O_EXCL shape the upper layers expect).
func (s *StripeFS) Create(name string, cred naming.Credentials) (fsys.File, error) {
	meta, servers, err := s.stacked()
	if err != nil {
		return nil, err
	}
	s.sweepOnce(cred)
	if obj, rerr := meta.Resolve(name, cred); rerr == nil {
		mf, err := fsys.AsFile(obj)
		if err != nil {
			return nil, err
		}
		l, err := readLayout(mf)
		if err != nil {
			return nil, fmt.Errorf("stripefs: %s: %w", name, err)
		}
		return s.fileFor(name, l, mf), nil
	}
	l := layout{objID: newObjID(), stripeSize: s.stripeSize, count: len(servers)}
	if err := s.commitLayout(meta, name, l, cred); err != nil {
		return nil, err
	}
	obj, err := meta.Resolve(name, cred)
	if err != nil {
		return nil, err
	}
	mf, _ := obj.(fsys.File)
	return s.fileFor(name, l, mf), nil
}

// Open implements fsys.FS.
func (s *StripeFS) Open(name string, cred naming.Credentials) (fsys.File, error) {
	obj, err := s.Resolve(name, cred)
	if err != nil {
		return nil, err
	}
	return fsys.AsFile(obj)
}

// Remove implements fsys.FS: the layout unlink on the metadata FS is the
// commit point; the stripe objects are removed afterwards. A file removed
// while retained handles are outstanding keeps its object storage live
// (nlink 0) behind those handles, exactly like a single-server unlink.
func (s *StripeFS) Remove(name string, cred naming.Credentials) error {
	meta, _, err := s.stacked()
	if err != nil {
		return err
	}
	s.sweepOnce(cred)
	l, lerr := s.layoutAt(meta, name, cred)
	isFile := lerr == nil

	s.mu.Lock()
	f := s.files[name]
	s.mu.Unlock()
	if isFile && f != nil && f.retainCount() > 0 {
		// Acquire handles for every existing object before the names go
		// away, so the retained wrapper keeps the storage reachable.
		f.acquireAll()
	}
	if err := meta.Remove(name, cred); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.files, name)
	if f != nil && f.retainCount() > 0 {
		s.orphans[f] = true
		f.setUnlinked()
	}
	s.mu.Unlock()
	if isFile {
		s.removeObjects(l, cred)
	}
	return nil
}

// removeObjects unlinks the file's stripe objects from every data server it
// was striped over (best effort: a missing object — never written, or on a
// dead server — is not an error; the mount-time sweep mops up survivors).
func (s *StripeFS) removeObjects(l layout, cred naming.Credentials) {
	objName := l.objName()
	for k := 0; k < l.count; k++ {
		if !s.serverHealthy(k) {
			stripeDegraded.Inc()
			continue
		}
		srv, err := s.serverFS(k, l.count)
		if err != nil {
			continue
		}
		if err := srv.Remove(objName, cred); err != nil && !isNotFound(err) {
			s.noteError(k, err)
		}
	}
}

// Rename implements fsys.FS: the metadata rename is the atomic commit
// point (it carries the layout with it — objects are named by id, not by
// path, so no data moves). An overwritten destination's objects are
// removed, or kept live behind retained handles like Remove does.
func (s *StripeFS) Rename(oldname, newname string, cred naming.Credentials) error {
	meta, _, err := s.stacked()
	if err != nil {
		return err
	}
	s.sweepOnce(cred)
	if oldname == newname {
		_, err := s.Resolve(oldname, cred)
		return err
	}
	destLay, derr := s.layoutAt(meta, newname, cred)
	destIsFile := derr == nil
	s.mu.Lock()
	destF := s.files[newname]
	s.mu.Unlock()
	if destIsFile && destF != nil && destF.retainCount() > 0 {
		destF.acquireAll()
	}
	if err := meta.Rename(oldname, newname, cred); err != nil {
		return err
	}
	s.mu.Lock()
	if destF != nil {
		delete(s.files, newname)
		if destF.retainCount() > 0 {
			s.orphans[destF] = true
			destF.setUnlinked()
		}
	}
	if f, ok := s.files[oldname]; ok {
		delete(s.files, oldname)
		f.rename(newname)
		s.files[newname] = f
	}
	s.mu.Unlock()
	if destIsFile {
		s.removeObjects(destLay, cred)
	}
	return nil
}

// SyncFS implements fsys.FS: the metadata FS and every healthy data server
// are flushed; a server out of the fan-out is skipped (counted as a
// degradation) rather than failing the whole sync.
func (s *StripeFS) SyncFS() error {
	meta, servers, err := s.stacked()
	if err != nil {
		return err
	}
	var errs []error
	if err := meta.SyncFS(); err != nil {
		errs = append(errs, err)
	}
	for k, srv := range servers {
		if !s.serverHealthy(k) {
			stripeDegraded.Inc()
			continue
		}
		if err := srv.SyncFS(); err != nil {
			s.noteError(k, err)
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Resolve implements naming.Context: names resolve on the metadata FS;
// files come back wrapped as striped files, directories as striped
// directory views (so files found through them are wrapped too).
func (s *StripeFS) Resolve(name string, cred naming.Credentials) (naming.Object, error) {
	meta, _, err := s.stacked()
	if err != nil {
		return nil, err
	}
	s.sweepOnce(cred)
	obj, err := meta.Resolve(name, cred)
	if err != nil {
		return nil, err
	}
	if _, ok := obj.(naming.Context); ok {
		if _, isFile := obj.(fsys.File); !isFile {
			return &fsys.PathDir{Root: s, Path: strings.Trim(name, "/")}, nil
		}
	}
	mf, err := fsys.AsFile(obj)
	if err != nil {
		return nil, err
	}
	l, err := readLayout(mf)
	if err != nil {
		return nil, fmt.Errorf("stripefs: %s: %w", name, err)
	}
	return s.fileFor(name, l, mf), nil
}

// Bind implements naming.Context.
func (s *StripeFS) Bind(name string, obj naming.Object, cred naming.Credentials) error {
	return fmt.Errorf("stripefs: bind is not supported; create files through the layer")
}

// Unbind implements naming.Context.
func (s *StripeFS) Unbind(name string, cred naming.Credentials) error {
	return s.Remove(name, cred)
}

// List implements naming.Context.
func (s *StripeFS) List(cred naming.Credentials) ([]naming.Binding, error) {
	return s.ListPath("", cred)
}

// ListPath implements fsys.PathRoot: the metadata FS's listing of path
// with the layer's internal temporaries hidden and files re-wrapped.
func (s *StripeFS) ListPath(path string, cred naming.Credentials) ([]naming.Binding, error) {
	meta, _, err := s.stacked()
	if err != nil {
		return nil, err
	}
	s.sweepOnce(cred)
	ctx, err := naming.ContextAt(meta, path, cred)
	if err != nil {
		return nil, err
	}
	bindings, err := ctx.List(cred)
	if err != nil {
		return nil, err
	}
	return s.wrapBindings(bindings, path, cred), nil
}

// wrapBindings rewrites a metadata listing into the striped view.
func (s *StripeFS) wrapBindings(bindings []naming.Binding, prefix string, cred naming.Credentials) []naming.Binding {
	out := make([]naming.Binding, 0, len(bindings))
	for _, b := range bindings {
		if strings.HasPrefix(b.Name, layoutTmpPrefix) {
			continue
		}
		path := b.Name
		if prefix != "" {
			path = prefix + "/" + b.Name
		}
		if obj, err := s.Resolve(path, cred); err == nil {
			b.Object = obj
		}
		out = append(out, b)
	}
	return out
}

// CreateContext implements naming.Context (directories live on the
// metadata FS only).
func (s *StripeFS) CreateContext(name string, cred naming.Credentials) (naming.Context, error) {
	meta, _, err := s.stacked()
	if err != nil {
		return nil, err
	}
	if _, err := meta.CreateContext(name, cred); err != nil {
		return nil, err
	}
	return &fsys.PathDir{Root: s, Path: strings.Trim(name, "/")}, nil
}

// runFanOut executes the per-server tasks of one operation through a
// bounded worker pool (the vm flush-pool idiom): every task runs, errors
// are joined. Tasks for distinct servers run concurrently, so an extent
// spanning K servers issues K concurrent RPCs.
func (s *StripeFS) runFanOut(tasks []func() error) error {
	if len(tasks) == 0 {
		return nil
	}
	stripeFanOps.Inc()
	for range tasks {
		stripeFanCalls.Inc()
	}
	if len(tasks) == 1 {
		return tasks[0]()
	}
	stripeFanWide.Inc()
	workers := s.workers
	if workers > len(tasks) {
		workers = len(tasks)
	}
	ch := make(chan func() error)
	var wg sync.WaitGroup
	var emu sync.Mutex
	var errs []error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for task := range ch {
				if err := task(); err != nil {
					emu.Lock()
					errs = append(errs, err)
					emu.Unlock()
				}
			}
		}()
	}
	for _, task := range tasks {
		ch <- task
	}
	close(ch)
	wg.Wait()
	return errors.Join(errs...)
}
