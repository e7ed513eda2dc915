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
	fsys.PathBase
	table      *fsys.ConnectionTable
	stripeSize int64
	workers    int

	mu          sync.Mutex
	meta        fsys.StackableFS
	servers     []fsys.StackableFS
	metaSwept   bool   // the metadata root has had its mount-time sweep
	swept       []bool // server k's objects swept since mount or its last Revive
	health      fsys.Health
	files       fsys.PathTable[*stripeFile]
	nextBacking atomic.Uint64
}

var (
	_ fsys.PathLayer        = (*StripeFS)(nil)
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
	s := &StripeFS{table: fsys.NewConnectionTable(domain), stripeSize: size, workers: workers}
	s.Init(name, s)
	return s, nil
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

// StripeSize returns the configured stripe width.
func (s *StripeFS) StripeSize() int64 { return s.stripeSize }

// StackOn implements fsys.StackableFS. The first call supplies the metadata
// file system; every subsequent call appends a data server, up to
// fsys.MaxBackends of them.
func (s *StripeFS) StackOn(under fsys.StackableFS) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.meta == nil:
		s.meta = under
		return nil
	case len(s.servers) == fsys.MaxBackends:
		return fsys.ErrAlreadyStacked
	}
	s.servers = append(s.servers, under)
	s.swept = append(s.swept, false)
	s.health.Add()
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

// Health returns the fan-out state of each data server.
func (s *StripeFS) Health() []bool { return s.health.Snapshot() }

// MarkUnhealthy removes data server k from the fan-out (test/operator hook;
// the normal path is a call to the server failing with
// fsys.ErrUnavailable).
func (s *StripeFS) MarkUnhealthy(k int) { s.health.MarkUnhealthy(k) }

// Revive puts data server k back in the fan-out. It is the operator's (or
// test's) signal that the fault is repaired — the layer cannot tell on its
// own that a dead link came back. Unlike mirrorfs there is nothing to
// resync: each stripe has exactly one home, so a server that missed writes
// while it was out simply failed them (the layer never pretends a degraded
// write succeeded). What it may still hold is debris — objects whose
// removal it missed, or that a sweep skipped because it was down — so the
// next operation sweeps it again.
func (s *StripeFS) Revive(k int) {
	s.health.Revive(k)
	s.mu.Lock()
	if k >= 0 && k < len(s.swept) {
		s.swept[k] = false
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
	for k, srv := range s.servers {
		st.Servers = append(st.Servers, ServerStatus{Name: srv.FSName(), Healthy: s.health.OK(k)})
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

// commitLayout writes the layout crash-atomically (fsys.CommitFile) under a
// temporary named after the fresh object id.
func (s *StripeFS) commitLayout(meta fsys.StackableFS, name string, l layout, cred naming.Credentials) error {
	tmp := fmt.Sprintf("%s%016x", layoutTmpPrefix, l.objID)
	if err := fsys.CommitFile(meta, tmp, name, l.encode(), cred); err != nil {
		return fmt.Errorf("stripefs: layout: %w", err)
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

// sweep garbage-collects debris from crashed commits: stale ".stripe-tmp-"
// layouts in the metadata root, once per mount, and on each data server —
// once per mount and again after each Revive, as soon as the server is in
// the fan-out — stripe objects whose id no layout references (a create
// that committed objects but crashed before the layout rename, a remove
// the server missed).
func (s *StripeFS) sweep(cred naming.Credentials) {
	s.mu.Lock()
	meta, servers := s.meta, s.servers
	if meta == nil || len(servers) == 0 {
		s.mu.Unlock()
		return
	}
	sweepMeta := !s.metaSwept
	s.metaSwept = true
	var due []int
	for k, done := range s.swept {
		if !done && s.health.OK(k) {
			s.swept[k] = true
			due = append(due, k)
		}
	}
	s.mu.Unlock()

	if sweepMeta {
		n, _ := fsys.SweepPrefix(meta, layoutTmpPrefix, nil, cred)
		stripeSwept.Add(int64(n))
	}
	var ids map[uint64]bool
	for _, k := range due {
		// A layout is committed before any of its objects exists, so an
		// object listed now is judged only by layout ids read after the
		// listing: ids read before it would condemn an object created in
		// between. One walk serves every server with nothing to collect.
		fresh := false
		n, err := fsys.SweepPrefix(servers[k], objPrefix, func(name string) bool {
			id, ok := parseObjName(name)
			if ok && !ids[id] && !fresh {
				ids, fresh = make(map[uint64]bool), true
				collectLayoutIDs(meta, cred, ids)
			}
			return !ok || ids[id]
		}, cred)
		s.health.Note(k, err)
		stripeSwept.Add(int64(n))
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

// fileFor returns the canonical striped file wrapper for a path.
func (s *StripeFS) fileFor(name string, l layout, metaFile fsys.File) *stripeFile {
	return s.files.LookupOrAdd(name, func() *stripeFile {
		return &stripeFile{
			fs:      s,
			lay:     l,
			meta:    metaFile,
			backing: s.nextBacking.Add(1),
			locks:   make([]sync.Mutex, l.count),
			objs:    make([]fsys.File, l.count),
		}
	})
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
	s.sweep(cred)
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

// unlinking prepares for name losing its file (a Remove, or a Rename over
// it): it reads the doomed file's layout and, if open handles retain the
// file, acquires a handle on every existing object while the layout still
// vouches for them — afterwards a sweep may take their names at any time —
// so the retained wrapper keeps the storage reachable.
func (s *StripeFS) unlinking(meta fsys.StackableFS, name string, cred naming.Credentials) (l layout, isFile bool) {
	l, err := s.layoutAt(meta, name, cred)
	if err != nil {
		return l, false
	}
	if f, ok := s.files.Lookup(name); ok && f.Retained() > 0 {
		f.acquireAll()
	}
	return l, true
}

// unlinked finishes what unlinking prepared, once the metadata FS has
// committed: the displaced wrapper, if still retained, learns it has no
// name, and the objects are removed from the servers (where retained ones
// stay live, nlink 0, behind their handles — exactly like a single-server
// unlink).
func (s *StripeFS) unlinked(f *stripeFile, retained bool, l layout, isFile bool, cred naming.Credentials) {
	if retained {
		f.setUnlinked()
	}
	if isFile {
		s.removeObjects(l, cred)
	}
}

// Remove implements fsys.FS: the layout unlink on the metadata FS is the
// commit point; the stripe objects are removed afterwards.
func (s *StripeFS) Remove(name string, cred naming.Credentials) error {
	meta, _, err := s.stacked()
	if err != nil {
		return err
	}
	s.sweep(cred)
	l, isFile := s.unlinking(meta, name, cred)
	if err := meta.Remove(name, cred); err != nil {
		return err
	}
	f, retained := s.files.Remove(name)
	s.unlinked(f, retained, l, isFile, cred)
	return nil
}

// removeObjects unlinks the file's stripe objects from every data server it
// was striped over (best effort: a missing object — never written, or on a
// dead server — is not an error; the sweep mops up survivors).
func (s *StripeFS) removeObjects(l layout, cred naming.Credentials) {
	objName := l.objName()
	for k := 0; k < l.count; k++ {
		if !s.health.OK(k) {
			stripeDegraded.Inc()
			continue
		}
		srv, err := s.serverFS(k, l.count)
		if err != nil {
			continue
		}
		if err := srv.Remove(objName, cred); err != nil && !isNotFound(err) {
			s.health.Note(k, err)
		}
	}
}

// Rename implements fsys.FS: the metadata rename is the atomic commit
// point (it carries the layout with it — objects are named by id, not by
// path, so no data moves). An overwritten destination goes the way of a
// removed file.
func (s *StripeFS) Rename(oldname, newname string, cred naming.Credentials) error {
	meta, _, err := s.stacked()
	if err != nil {
		return err
	}
	s.sweep(cred)
	if oldname == newname {
		_, err := s.Resolve(oldname, cred)
		return err
	}
	l, isFile := s.unlinking(meta, newname, cred)
	if err := meta.Rename(oldname, newname, cred); err != nil {
		return err
	}
	// No wrapper under the old name: a file nobody opened, or a directory
	// with its wrappers filed beneath it.
	_, filed := s.files.Lookup(oldname)
	f, retained := s.files.Rename(oldname, newname, !filed && fsys.IsDirAt(meta, newname, cred))
	s.unlinked(f, retained, l, isFile, cred)
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
		if !s.health.OK(k) {
			stripeDegraded.Inc()
			continue
		}
		if err := srv.SyncFS(); err != nil {
			s.health.Note(k, err)
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
	s.sweep(cred)
	obj, err := meta.Resolve(name, cred)
	if err != nil {
		return nil, err
	}
	if _, ok := obj.(naming.Context); ok {
		if _, isFile := obj.(fsys.File); !isFile {
			return s.Dir(name), nil
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

// ListPath implements fsys.PathRoot: the metadata FS's listing of path
// with the layer's internal temporaries hidden and files re-wrapped.
func (s *StripeFS) ListPath(path string, cred naming.Credentials) ([]naming.Binding, error) {
	meta, _, err := s.stacked()
	if err != nil {
		return nil, err
	}
	s.sweep(cred)
	ctx, err := naming.ContextAt(meta, path, cred)
	if err != nil {
		return nil, err
	}
	bindings, err := ctx.List(cred)
	if err != nil {
		return nil, err
	}
	out := make([]naming.Binding, 0, len(bindings))
	for _, b := range bindings {
		if strings.HasPrefix(b.Name, layoutTmpPrefix) {
			continue
		}
		full := b.Name
		if path != "" {
			full = path + "/" + b.Name
		}
		if obj, err := s.Resolve(full, cred); err == nil {
			b.Object = obj
		}
		out = append(out, b)
	}
	return out, nil
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
	return s.Dir(name), nil
}

// runFanOut runs visit(k) for each data server k in ks through a bounded
// worker pool (the vm flush-pool idiom): every visit runs, errors are
// joined. Visits run concurrently, so an extent spanning K servers issues
// K concurrent RPCs.
func (s *StripeFS) runFanOut(ks []int, visit func(k int) error) error {
	if len(ks) == 0 {
		return nil
	}
	stripeFanOps.Inc()
	stripeFanCalls.Add(int64(len(ks)))
	if len(ks) == 1 {
		return visit(ks[0])
	}
	stripeFanWide.Inc()
	ch := make(chan int)
	var wg sync.WaitGroup
	var emu sync.Mutex
	var errs []error
	for w := 0; w < min(s.workers, len(ks)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range ch {
				if err := visit(k); err != nil {
					emu.Lock()
					errs = append(errs, err)
					emu.Unlock()
				}
			}
		}()
	}
	for _, k := range ks {
		ch <- k
	}
	close(ch)
	wg.Wait()
	return errors.Join(errs...)
}
