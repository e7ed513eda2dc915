// Package snapfs implements SNAPFS, a copy-on-write snapshot/clone layer
// in the style the paper anticipates for new file system functionality
// (Section 4.2): it is an ordinary stackable layer, so instant snapshots
// and writable clones arrive without touching the layers below.
//
// # Epoch model
//
// All state is versioned by monotonically increasing epochs. The layer
// always has one writable "main" epoch; Snapshot(name) seals it — an O(1)
// metadata commit, no file data is copied — and opens a fresh main epoch
// whose parent is the sealed one. Clone(snap, name) opens an independent
// writable epoch whose parent is a sealed snapshot epoch. Epochs therefore
// form a tree rooted at epoch 1:
//
//	1 ── 2 ── 3 (main)          Snapshot sealed 1 and 2;
//	     └─ 4 (clone "scratch")  the clone diverges from epoch 2.
//
// Every block a file ever stores is tagged with the epoch that wrote it.
// A read at epoch E resolves each block by walking E's parent chain and
// taking the nearest tagged version; a write at E that would modify a
// block owned by an ancestor copies it on write (appends a new block
// tagged E) so the ancestor's — the snapshot's — version is never touched.
// Unmodified blocks are therefore *shared*: every epoch reads the same
// bytes of the same underlying file, so the layers below cache exactly one
// copy per physical page no matter how many clones read it (the sharing
// rides the ordinary cache-manager/pager protocol of the stack — SNAPFS
// adds no cache of its own).
//
// # On-disk layout
//
// SNAPFS stores per-file images in the underlying file system, named
// ".sfd-<fileID>" (file identity survives rename/unlink, like an inode
// number), plus one manifest ".snapmeta" holding the epoch tree and every
// epoch's name table. The manifest commits by write-to-temporary + sync +
// rename-over; stacked on SFS the rename is a journaled transaction, so a
// power cut mid-snapshot atomically lands on either the old or the new
// epoch tree (see docs/SNAPSHOTS.md for the formats).
package snapfs

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/stats"
)

// Manifest and image names in the underlying file system.
const (
	manifestName    = ".snapmeta"
	manifestTmpName = ".snapmeta.tmp"
	imagePrefix     = ".sfd-"
)

// Epoch kinds.
const (
	kindMain     = "main"
	kindSnapshot = "snapshot"
	kindClone    = "clone"
)

// Counters (registered eagerly so `springsh stats` shows them at zero).
var (
	snapSnapshots = stats.Default.Counter("snap.snapshots")
	snapClones    = stats.Default.Counter("snap.clones")
	snapCowBlocks = stats.Default.Counter("snap.cow.blocks")
	snapManifests = stats.Default.Counter("snap.manifest.commits")
)

// Errors returned by snapfs.
var (
	// ErrBadManifest means the stored manifest does not parse.
	ErrBadManifest = errors.New("snapfs: bad manifest")
	// ErrNoSnapshot means the named snapshot does not exist.
	ErrNoSnapshot = errors.New("snapfs: no such snapshot")
	// ErrSnapshotExists means the snapshot or clone name is taken.
	ErrSnapshotExists = errors.New("snapfs: snapshot or clone name already exists")
)

// nameEntry is one binding in an epoch's name table.
type nameEntry struct {
	dir    bool
	fileID uint64
}

// epoch is one node of the epoch tree.
type epoch struct {
	id     uint64
	parent uint64 // 0 = none (the root epoch)
	kind   string // kindMain | kindSnapshot | kindClone
	name   string // snapshot/clone name ("" for main)
	table  map[string]nameEntry
}

// epochRef names an epoch from a handle's point of view: either the main
// line (re-resolved on every operation, so a handle opened before a
// snapshot keeps writing to the live file) or a fixed epoch id (snapshot
// and clone views).
type epochRef struct {
	main bool
	id   uint64
}

func (r epochRef) key() string {
	if r.main {
		return "main"
	}
	return strconv.FormatUint(r.id, 10)
}

// SnapFS is an instance of the snapshot/clone layer. The SnapFS value
// itself is the view of the main (writable, most recent) epoch — it embeds
// that view, and only adds what the store as a whole does; Clone and
// SnapshotView return sibling views of other epochs backed by the same
// store.
type SnapFS struct {
	SnapView // the main line
	table    *fsys.ConnectionTable

	// epochMu gates writers (read-held) against Snapshot (write-held), so
	// a write never lands in an epoch that sealed mid-operation.
	epochMu sync.RWMutex

	mu          sync.Mutex
	under       fsys.StackableFS
	loaded      bool
	current     uint64 // id of the main epoch
	nextEpoch   uint64
	nextFile    uint64
	epochs      map[uint64]*epoch
	files       map[uint64]*snapImage // fileID → image
	nextBacking atomic.Uint64
}

var (
	_ fsys.PathLayer        = (*SnapFS)(nil)
	_ naming.ProxyWrappable = (*SnapFS)(nil)
)

var mainRef = epochRef{main: true}

// New creates a SNAPFS instance served by domain.
func New(domain *spring.Domain, name string) *SnapFS {
	s := &SnapFS{
		table:  fsys.NewConnectionTable(domain),
		epochs: make(map[uint64]*epoch),
		files:  make(map[uint64]*snapImage),
	}
	s.SnapView = SnapView{s: s, ref: mainRef, writable: true}
	s.Init(name, s)
	return s
}

// NewCreator returns a stackable_fs_creator for SNAPFS.
func NewCreator(domain *spring.Domain) fsys.Creator {
	var n atomic.Uint64
	return fsys.CreatorFunc(func(config map[string]string) (fsys.StackableFS, error) {
		name := config["name"]
		if name == "" {
			name = fmt.Sprintf("snapfs%d", n.Add(1))
		}
		return New(domain, name), nil
	})
}

// StackOn implements fsys.StackableFS.
func (s *SnapFS) StackOn(under fsys.StackableFS) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.under != nil {
		return fsys.ErrAlreadyStacked
	}
	s.under = under
	return nil
}

// ---- manifest ----

// loadLocked brings the epoch tree in from the underlying manifest (or
// initialises a fresh one) and sweeps crash leftovers. Caller holds s.mu.
func (s *SnapFS) loadLocked() error {
	if s.loaded {
		return nil
	}
	if s.under == nil {
		return fsys.ErrNotStacked
	}
	// A temporary manifest left behind by a power cut mid-commit is dead:
	// the rename never happened, so the old manifest is still the truth.
	// (Best effort, and usually there is none: the next commit truncates
	// whatever stays.)
	_ = s.under.Remove(manifestTmpName, naming.Root)
	obj, err := s.under.Resolve(manifestName, naming.Root)
	if err != nil {
		// Fresh store: epoch 1 is the main epoch.
		s.current = 1
		s.nextEpoch = 2
		s.nextFile = 1
		s.epochs = map[uint64]*epoch{
			1: {id: 1, kind: kindMain, table: make(map[string]nameEntry)},
		}
		s.loaded = true
		return s.commitManifestLocked()
	}
	f, err := fsys.AsFile(obj)
	if err != nil {
		return err
	}
	length, err := f.GetLength()
	if err != nil {
		return err
	}
	raw := make([]byte, length)
	if length > 0 {
		n, err := f.ReadAt(raw, 0)
		if err != nil && !errors.Is(err, io.EOF) {
			return err
		}
		raw = raw[:n]
	}
	if err := s.parseManifestLocked(string(raw)); err != nil {
		return err
	}
	s.loaded = true
	s.sweepOrphanImagesLocked()
	return nil
}

// sweepOrphanImagesLocked removes image files no epoch references — the
// leftovers of a crash between image creation and manifest commit (or
// between the manifest commit that dropped the last reference and the
// image removal). Caller holds s.mu with the manifest loaded.
func (s *SnapFS) sweepOrphanImagesLocked() {
	live := make(map[uint64]bool)
	for _, e := range s.epochs {
		for _, ent := range e.table {
			if !ent.dir {
				live[ent.fileID] = true
			}
		}
	}
	_, _ = fsys.SweepPrefix(s.under, imagePrefix, func(name string) bool {
		id, err := strconv.ParseUint(strings.TrimPrefix(name, imagePrefix), 16, 64)
		return err != nil || live[id]
	}, naming.Root)
}

// encodeManifestLocked serialises the epoch tree. One record per line;
// paths and names are %q-quoted and always the last field.
func (s *SnapFS) encodeManifestLocked() string {
	var b strings.Builder
	fmt.Fprintf(&b, "snapfs-manifest v1\n")
	fmt.Fprintf(&b, "current %d\n", s.current)
	fmt.Fprintf(&b, "next-epoch %d\n", s.nextEpoch)
	fmt.Fprintf(&b, "next-file %d\n", s.nextFile)
	ids := make([]uint64, 0, len(s.epochs))
	for id := range s.epochs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		e := s.epochs[id]
		fmt.Fprintf(&b, "epoch %d %d %s %q\n", e.id, e.parent, e.kind, e.name)
		paths := make([]string, 0, len(e.table))
		for p := range e.table {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			ent := e.table[p]
			kind := "file"
			if ent.dir {
				kind = "dir"
			}
			fmt.Fprintf(&b, "entry %d %s %d %q\n", e.id, kind, ent.fileID, p)
		}
	}
	return b.String()
}

func (s *SnapFS) parseManifestLocked(raw string) error {
	lines := strings.Split(raw, "\n")
	if len(lines) == 0 || strings.TrimSpace(lines[0]) != "snapfs-manifest v1" {
		return fmt.Errorf("%w: bad header", ErrBadManifest)
	}
	s.epochs = make(map[uint64]*epoch)
	for _, line := range lines[1:] {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.SplitN(line, " ", 5)
		bad := func() error { return fmt.Errorf("%w: %q", ErrBadManifest, line) }
		switch fields[0] {
		case "current", "next-epoch", "next-file":
			if len(fields) != 2 {
				return bad()
			}
			v, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				return bad()
			}
			switch fields[0] {
			case "current":
				s.current = v
			case "next-epoch":
				s.nextEpoch = v
			case "next-file":
				s.nextFile = v
			}
		case "epoch":
			if len(fields) != 5 {
				return bad()
			}
			id, err1 := strconv.ParseUint(fields[1], 10, 64)
			parent, err2 := strconv.ParseUint(fields[2], 10, 64)
			name, err3 := strconv.Unquote(fields[4])
			if err1 != nil || err2 != nil || err3 != nil {
				return bad()
			}
			s.epochs[id] = &epoch{
				id: id, parent: parent, kind: fields[3], name: name,
				table: make(map[string]nameEntry),
			}
		case "entry":
			if len(fields) != 5 {
				return bad()
			}
			eid, err1 := strconv.ParseUint(fields[1], 10, 64)
			fid, err2 := strconv.ParseUint(fields[3], 10, 64)
			path, err3 := strconv.Unquote(fields[4])
			if err1 != nil || err2 != nil || err3 != nil {
				return bad()
			}
			e, ok := s.epochs[eid]
			if !ok {
				return bad()
			}
			e.table[path] = nameEntry{dir: fields[2] == "dir", fileID: fid}
		default:
			return bad()
		}
	}
	if s.epochs[s.current] == nil {
		return fmt.Errorf("%w: current epoch %d missing", ErrBadManifest, s.current)
	}
	return nil
}

// commitManifestLocked persists the epoch tree atomically
// (fsys.CommitFile): a power cut anywhere in here lands on exactly the old
// or the new tree. Caller holds s.mu.
func (s *SnapFS) commitManifestLocked() error {
	raw := []byte(s.encodeManifestLocked())
	if err := fsys.CommitFile(s.under, manifestTmpName, manifestName, raw, naming.Root); err != nil {
		return err
	}
	snapManifests.Inc()
	return nil
}

// ---- epoch plumbing ----

// refEpochLocked resolves an epochRef to its epoch. Caller holds s.mu.
func (s *SnapFS) refEpochLocked(ref epochRef) (*epoch, error) {
	id := ref.id
	if ref.main {
		id = s.current
	}
	e, ok := s.epochs[id]
	if !ok {
		return nil, fmt.Errorf("snapfs: epoch %d gone", id)
	}
	return e, nil
}

// chainFor returns the epoch chain for ref, nearest first (the epoch
// itself, then its ancestors to the root).
func (s *SnapFS) chainFor(ref epochRef) ([]uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.loadLocked(); err != nil {
		return nil, err
	}
	return s.chainForLocked(ref)
}

func (s *SnapFS) chainForLocked(ref epochRef) ([]uint64, error) {
	e, err := s.refEpochLocked(ref)
	if err != nil {
		return nil, err
	}
	var chain []uint64
	for {
		chain = append(chain, e.id)
		if e.parent == 0 {
			return chain, nil
		}
		p, ok := s.epochs[e.parent]
		if !ok {
			return nil, fmt.Errorf("snapfs: epoch %d missing parent %d", e.id, e.parent)
		}
		e = p
	}
}

// imageName is the underlying file name for a file identity.
func imageName(fileID uint64) string { return fmt.Sprintf("%s%016x", imagePrefix, fileID) }

// imageForLocked returns (opening if needed) the shared image for fileID.
// Caller holds s.mu with the manifest loaded.
func (s *SnapFS) imageForLocked(fileID uint64) (*snapImage, error) {
	if img, ok := s.files[fileID]; ok {
		return img, nil
	}
	obj, err := s.under.Resolve(imageName(fileID), naming.Root)
	if err != nil {
		return nil, err
	}
	lower, err := fsys.AsFile(obj)
	if err != nil {
		return nil, err
	}
	img := &snapImage{fs: s, fileID: fileID, lower: lower, handles: make(map[string]*snapFile)}
	s.files[fileID] = img
	return img, nil
}

// handleForLocked returns the canonical view handle for (fileID, ref).
// Caller holds s.mu with the manifest loaded.
func (s *SnapFS) handleForLocked(fileID uint64, ref epochRef, writable bool) (*snapFile, error) {
	img, err := s.imageForLocked(fileID)
	if err != nil {
		return nil, err
	}
	img.mu.Lock()
	defer img.mu.Unlock()
	if f, ok := img.handles[ref.key()]; ok {
		return f, nil
	}
	f := &snapFile{
		img:      img,
		ref:      ref,
		writable: writable,
		backing:  s.nextBacking.Add(1),
	}
	img.handles[ref.key()] = f
	return f, nil
}

// ---- views ----

// SnapView is one epoch of the shared store seen as a file system: the
// main line (embedded in SnapFS), a read-only snapshot view or a writable
// clone view. Every view implements the whole stackable interface, so a
// clone can be used anywhere a file system can (bound into a name space,
// stacked under further layers, wrapped in a POSIX process).
type SnapView struct {
	fsys.PathBase
	s        *SnapFS
	ref      epochRef
	writable bool
}

var (
	_ fsys.PathLayer        = (*SnapView)(nil)
	_ naming.ProxyWrappable = (*SnapView)(nil)
)

// view returns the view of epoch id under its snapshot or clone name.
func (s *SnapFS) view(id uint64, writable bool, name string) *SnapView {
	v := &SnapView{s: s, ref: epochRef{id: id}, writable: writable}
	v.Init(s.FSName()+"@"+name, v)
	return v
}

// StackOn implements fsys.StackableFS: views are born stacked.
func (v *SnapView) StackOn(under fsys.StackableFS) error { return fsys.ErrAlreadyStacked }

// SyncFS implements fsys.FS: the store syncs as a whole.
func (v *SnapView) SyncFS() error { return v.s.SyncFS() }

// SyncFS implements fsys.FS: flush every dirty image table, then the
// layer below.
func (s *SnapFS) SyncFS() error {
	s.mu.Lock()
	under := s.under
	images := make([]*snapImage, 0, len(s.files))
	for _, img := range s.files {
		images = append(images, img)
	}
	s.mu.Unlock()
	if under == nil {
		return fsys.ErrNotStacked
	}
	for _, img := range images {
		if err := img.Sync(); err != nil {
			return err
		}
	}
	return under.SyncFS()
}

// ---- namespace operations (every view, the main line included) ----

func cleanPath(name string) string { return strings.Trim(name, "/") }

// checkParentLocked validates that every ancestor of path is a directory
// entry in tbl.
func checkParentLocked(tbl map[string]nameEntry, path string) error {
	i := strings.LastIndex(path, "/")
	if i < 0 {
		return nil
	}
	parent := path[:i]
	ent, ok := tbl[parent]
	if !ok {
		return fmt.Errorf("snapfs: %s: %w", parent, naming.ErrNotFound)
	}
	if !ent.dir {
		return fmt.Errorf("snapfs: %s: %w", parent, naming.ErrNotContext)
	}
	return nil
}

// Create implements fsys.FS: it creates (or truncates) a file in a
// writable epoch.
func (v *SnapView) Create(name string, cred naming.Credentials) (fsys.File, error) {
	if !v.writable {
		return nil, fsys.ErrReadOnly
	}
	s, ref := v.s, v.ref
	path := cleanPath(name)
	if path == "" {
		return nil, naming.ErrBadName
	}
	s.epochMu.RLock()
	defer s.epochMu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.loadLocked(); err != nil {
		return nil, err
	}
	e, err := s.refEpochLocked(ref)
	if err != nil {
		return nil, err
	}
	if ent, ok := e.table[path]; ok {
		if ent.dir {
			return nil, fmt.Errorf("snapfs: %s: %w", path, fsys.ErrIsDirectory)
		}
		// POSIX creat over an existing file truncates it in place.
		f, err := s.handleForLocked(ent.fileID, ref, true)
		if err != nil {
			return nil, err
		}
		chain, err := s.chainForLocked(ref)
		if err != nil {
			return nil, err
		}
		s.mu.Unlock()
		err = f.img.setLength(chain[0], chain, 0)
		s.mu.Lock()
		if err != nil {
			return nil, err
		}
		return f, nil
	}
	if err := checkParentLocked(e.table, path); err != nil {
		return nil, err
	}
	fileID := s.nextFile
	s.nextFile++
	lower, err := s.under.Create(imageName(fileID), naming.Root)
	if err != nil {
		return nil, err
	}
	img := &snapImage{fs: s, fileID: fileID, lower: lower, handles: make(map[string]*snapFile)}
	img.tbl = newImageTable()
	if err := img.writeMetaLocked(); err != nil {
		return nil, err
	}
	e.table[path] = nameEntry{fileID: fileID}
	if err := s.commitManifestLocked(); err != nil {
		// Roll back: the image becomes an orphan swept at next load, but
		// try to drop it eagerly.
		delete(e.table, path)
		_ = s.under.Remove(imageName(fileID), naming.Root)
		return nil, err
	}
	s.files[fileID] = img
	return s.handleForLocked(fileID, ref, true)
}

// Remove implements fsys.FS: it unlinks a file or empty directory from a
// writable epoch. The image file is removed from the underlying store only
// once *no* epoch references it; retained upper handles keep it alive
// below through the ordinary retained-handle protocol.
func (v *SnapView) Remove(name string, cred naming.Credentials) error {
	if !v.writable {
		return fsys.ErrReadOnly
	}
	s, ref := v.s, v.ref
	path := cleanPath(name)
	if path == "" {
		return naming.ErrBadName
	}
	s.epochMu.RLock()
	defer s.epochMu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.loadLocked(); err != nil {
		return err
	}
	e, err := s.refEpochLocked(ref)
	if err != nil {
		return err
	}
	ent, ok := e.table[path]
	if !ok {
		return fmt.Errorf("snapfs: %s: %w", path, naming.ErrNotFound)
	}
	if ent.dir {
		prefix := path + "/"
		for p := range e.table {
			if strings.HasPrefix(p, prefix) {
				return fmt.Errorf("snapfs: %s: directory not empty", path)
			}
		}
		delete(e.table, path)
		if err := s.commitManifestLocked(); err != nil {
			e.table[path] = ent
			return err
		}
		return nil
	}
	delete(e.table, path)
	if err := s.commitManifestLocked(); err != nil {
		e.table[path] = ent
		return err
	}
	s.maybeDropImageLocked(ent.fileID)
	return nil
}

// maybeDropImageLocked removes the underlying image when no epoch
// references fileID any longer. Open handles keep the lower storage
// alive (the retained-handle chain ends at the disk layer's orphan
// machinery); the wrapper is dropped on the last Release.
func (s *SnapFS) maybeDropImageLocked(fileID uint64) {
	for _, e := range s.epochs {
		for _, ent := range e.table {
			if !ent.dir && ent.fileID == fileID {
				return
			}
		}
	}
	if img, ok := s.files[fileID]; ok {
		img.mu.Lock()
		img.orphan = true
		refs := img.refs
		img.mu.Unlock()
		_ = s.under.Remove(imageName(fileID), naming.Root)
		if refs == 0 {
			delete(s.files, fileID)
		}
		return
	}
	_ = s.under.Remove(imageName(fileID), naming.Root)
}

// Rename implements fsys.FS: it atomically renames within a writable
// epoch, replacing an existing destination (whose image follows the
// unreferenced-image rule). Directories move with their whole subtree.
func (v *SnapView) Rename(oldname, newname string, cred naming.Credentials) error {
	if !v.writable {
		return fsys.ErrReadOnly
	}
	s, ref := v.s, v.ref
	oldPath, newPath := cleanPath(oldname), cleanPath(newname)
	if oldPath == "" || newPath == "" {
		return naming.ErrBadName
	}
	s.epochMu.RLock()
	defer s.epochMu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.loadLocked(); err != nil {
		return err
	}
	e, err := s.refEpochLocked(ref)
	if err != nil {
		return err
	}
	oldEnt, ok := e.table[oldPath]
	if !ok {
		return fmt.Errorf("snapfs: %s: %w", oldPath, naming.ErrNotFound)
	}
	if oldPath == newPath {
		return nil
	}
	if err := checkParentLocked(e.table, newPath); err != nil {
		return err
	}
	if oldEnt.dir && strings.HasPrefix(newPath, oldPath+"/") {
		return fmt.Errorf("snapfs: cannot move %s inside itself", oldPath)
	}
	saved := make(map[string]nameEntry)
	restore := func() {
		for p, ent := range saved {
			e.table[p] = ent
		}
	}
	var droppedFile uint64
	if destEnt, ok := e.table[newPath]; ok {
		if destEnt.dir {
			prefix := newPath + "/"
			for p := range e.table {
				if strings.HasPrefix(p, prefix) {
					return fmt.Errorf("snapfs: %s: directory not empty", newPath)
				}
			}
		} else {
			droppedFile = destEnt.fileID
		}
		saved[newPath] = destEnt
	}
	saved[oldPath] = oldEnt
	delete(e.table, oldPath)
	e.table[newPath] = oldEnt
	if oldEnt.dir {
		prefix := oldPath + "/"
		var moves []string
		for p := range e.table {
			if strings.HasPrefix(p, prefix) {
				moves = append(moves, p)
			}
		}
		for _, p := range moves {
			saved[p] = e.table[p]
			e.table[newPath+"/"+strings.TrimPrefix(p, prefix)] = e.table[p]
			delete(e.table, p)
		}
	}
	if err := s.commitManifestLocked(); err != nil {
		// Undo the in-memory move (remove moved keys, restore saved ones).
		delete(e.table, newPath)
		if oldEnt.dir {
			prefix := newPath + "/"
			for p := range e.table {
				if strings.HasPrefix(p, prefix) {
					delete(e.table, p)
				}
			}
		}
		restore()
		return err
	}
	if droppedFile != 0 {
		s.maybeDropImageLocked(droppedFile)
	}
	return nil
}

// Resolve implements naming.Context. Directories found on the way call
// back into the view doing the resolving.
func (v *SnapView) Resolve(name string, cred naming.Credentials) (naming.Object, error) {
	s, ref := v.s, v.ref
	path := cleanPath(name)
	if path == "" {
		return v.Dir(""), nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.loadLocked(); err != nil {
		return nil, err
	}
	e, err := s.refEpochLocked(ref)
	if err != nil {
		return nil, err
	}
	ent, ok := e.table[path]
	if !ok {
		return nil, fmt.Errorf("snapfs: %s: %w", path, naming.ErrNotFound)
	}
	if ent.dir {
		return v.Dir(path), nil
	}
	return s.handleForLocked(ent.fileID, ref, v.writable)
}

// ListPath implements fsys.PathRoot: the bindings directly under path (""
// = the root).
func (v *SnapView) ListPath(path string, cred naming.Credentials) ([]naming.Binding, error) {
	s, ref, dir := v.s, v.ref, cleanPath(path)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.loadLocked(); err != nil {
		return nil, err
	}
	e, err := s.refEpochLocked(ref)
	if err != nil {
		return nil, err
	}
	prefix := ""
	if dir != "" {
		prefix = dir + "/"
	}
	var out []naming.Binding
	for p, ent := range e.table {
		if !strings.HasPrefix(p, prefix) {
			continue
		}
		rest := strings.TrimPrefix(p, prefix)
		if rest == "" || strings.Contains(rest, "/") {
			continue
		}
		var obj naming.Object
		if ent.dir {
			obj = v.Dir(p)
		} else {
			f, err := s.handleForLocked(ent.fileID, ref, v.writable)
			if err != nil {
				return nil, err
			}
			obj = f
		}
		out = append(out, naming.Binding{Name: rest, Object: obj})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// CreateContext implements naming.Context: it creates a directory entry
// in a writable epoch.
func (v *SnapView) CreateContext(name string, cred naming.Credentials) (naming.Context, error) {
	if !v.writable {
		return nil, fsys.ErrReadOnly
	}
	s, ref := v.s, v.ref
	path := cleanPath(name)
	if path == "" {
		return nil, naming.ErrBadName
	}
	s.epochMu.RLock()
	defer s.epochMu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.loadLocked(); err != nil {
		return nil, err
	}
	e, err := s.refEpochLocked(ref)
	if err != nil {
		return nil, err
	}
	if _, ok := e.table[path]; ok {
		return nil, fmt.Errorf("snapfs: %s: %w", path, naming.ErrExists)
	}
	if err := checkParentLocked(e.table, path); err != nil {
		return nil, err
	}
	e.table[path] = nameEntry{dir: true}
	if err := s.commitManifestLocked(); err != nil {
		delete(e.table, path)
		return nil, err
	}
	return v.Dir(path), nil
}

// ---- snapshot / clone / diff ----

// Snapshot seals the current main epoch under name and opens a fresh main
// epoch. It is O(1) in file data: dirty image *tables* are flushed and the
// store synced (so the frozen epoch is durable), but no file data is
// copied — blocks are already tagged with the epoch that wrote them.
func (s *SnapFS) Snapshot(name string) error {
	if name == "" {
		return fmt.Errorf("snapfs: empty snapshot name")
	}
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	s.mu.Lock()
	if err := s.loadLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	if s.findEpochByNameLocked(name) != nil {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrSnapshotExists, name)
	}
	under := s.under
	images := make([]*snapImage, 0, len(s.files))
	for _, img := range s.files {
		images = append(images, img)
	}
	s.mu.Unlock()
	// Make the about-to-be-sealed epoch durable: flush the image tables,
	// then barrier the store below. epochMu (held exclusively) keeps any
	// writer from adding to the epoch meanwhile.
	for _, img := range images {
		if err := img.Sync(); err != nil {
			return err
		}
	}
	if err := under.SyncFS(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.epochs[s.current]
	fresh := &epoch{
		id:     s.nextEpoch,
		parent: cur.id,
		kind:   kindMain,
		table:  copyTable(cur.table),
	}
	cur.kind, cur.name = kindSnapshot, name
	s.epochs[fresh.id] = fresh
	s.nextEpoch++
	oldCurrent := s.current
	s.current = fresh.id
	if err := s.commitManifestLocked(); err != nil {
		cur.kind, cur.name = kindMain, ""
		delete(s.epochs, fresh.id)
		s.nextEpoch--
		s.current = oldCurrent
		return err
	}
	snapSnapshots.Inc()
	return nil
}

// Clone opens a writable view diverging from the named snapshot. The
// clone's unmodified data is shared with the snapshot (and with every
// other clone of it) down to the physical page.
func (s *SnapFS) Clone(snapName, cloneName string) (*SnapView, error) {
	if cloneName == "" {
		return nil, fmt.Errorf("snapfs: empty clone name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.loadLocked(); err != nil {
		return nil, err
	}
	snap := s.findEpochByNameLocked(snapName)
	if snap == nil || snap.kind != kindSnapshot {
		return nil, fmt.Errorf("%w: %q", ErrNoSnapshot, snapName)
	}
	if s.findEpochByNameLocked(cloneName) != nil {
		return nil, fmt.Errorf("%w: %q", ErrSnapshotExists, cloneName)
	}
	fresh := &epoch{
		id:     s.nextEpoch,
		parent: snap.id,
		kind:   kindClone,
		name:   cloneName,
		table:  copyTable(snap.table),
	}
	s.epochs[fresh.id] = fresh
	s.nextEpoch++
	if err := s.commitManifestLocked(); err != nil {
		delete(s.epochs, fresh.id)
		s.nextEpoch--
		return nil, err
	}
	snapClones.Inc()
	return s.view(fresh.id, true, cloneName), nil
}

// SnapshotView returns a read-only view of the named snapshot.
func (s *SnapFS) SnapshotView(name string) (*SnapView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.loadLocked(); err != nil {
		return nil, err
	}
	e := s.findEpochByNameLocked(name)
	if e == nil || e.kind != kindSnapshot {
		return nil, fmt.Errorf("%w: %q", ErrNoSnapshot, name)
	}
	return s.view(e.id, false, name), nil
}

// CloneView returns the writable view of an existing clone (clones
// persist in the manifest across remounts).
func (s *SnapFS) CloneView(name string) (*SnapView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.loadLocked(); err != nil {
		return nil, err
	}
	e := s.findEpochByNameLocked(name)
	if e == nil || e.kind != kindClone {
		return nil, fmt.Errorf("%w: clone %q", ErrNoSnapshot, name)
	}
	return s.view(e.id, true, name), nil
}

// Snapshots returns the snapshot names, oldest first.
func (s *SnapFS) Snapshots() ([]string, error) {
	return s.epochNames(kindSnapshot)
}

// Clones returns the clone names, oldest first.
func (s *SnapFS) Clones() ([]string, error) {
	return s.epochNames(kindClone)
}

func (s *SnapFS) epochNames(kind string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.loadLocked(); err != nil {
		return nil, err
	}
	ids := make([]uint64, 0, len(s.epochs))
	for id, e := range s.epochs {
		if e.kind == kind {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = s.epochs[id].name
	}
	return names, nil
}

func (s *SnapFS) findEpochByNameLocked(name string) *epoch {
	for _, e := range s.epochs {
		if e.name == name && e.kind != kindMain {
			return e
		}
	}
	return nil
}

func copyTable(t map[string]nameEntry) map[string]nameEntry {
	out := make(map[string]nameEntry, len(t))
	for k, v := range t {
		out[k] = v
	}
	return out
}

// DiffEntry is one path that differs between two epochs.
type DiffEntry struct {
	Path   string
	Status string // "added", "removed", "replaced", "type-changed", "modified"
}

// refByName resolves a diff operand: "current" (or "main") is the main
// epoch; otherwise a snapshot or clone name.
func (s *SnapFS) refByNameLocked(name string) (epochRef, error) {
	if name == "current" || name == "main" {
		return mainRef, nil
	}
	e := s.findEpochByNameLocked(name)
	if e == nil {
		return epochRef{}, fmt.Errorf("%w: %q", ErrNoSnapshot, name)
	}
	return epochRef{id: e.id}, nil
}

// Diff reports the paths that differ between two epochs, each named by a
// snapshot/clone name or "current". Sealed blocks are immutable, so two
// epochs resolving a block to the same physical extent are guaranteed
// byte-identical and the comparison never touches file data.
func (s *SnapFS) Diff(a, b string) ([]DiffEntry, error) {
	s.mu.Lock()
	if err := s.loadLocked(); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	refA, err := s.refByNameLocked(a)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	refB, err := s.refByNameLocked(b)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	ea, err := s.refEpochLocked(refA)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	eb, err := s.refEpochLocked(refB)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	chainA, err := s.chainForLocked(refA)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	chainB, err := s.chainForLocked(refB)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	tableA, tableB := copyTable(ea.table), copyTable(eb.table)
	s.mu.Unlock()

	paths := make([]string, 0, len(tableA)+len(tableB))
	seen := make(map[string]bool)
	for p := range tableA {
		paths = append(paths, p)
		seen[p] = true
	}
	for p := range tableB {
		if !seen[p] {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	var out []DiffEntry
	for _, p := range paths {
		entA, inA := tableA[p]
		entB, inB := tableB[p]
		switch {
		case !inA:
			out = append(out, DiffEntry{p, "added"})
		case !inB:
			out = append(out, DiffEntry{p, "removed"})
		case entA.dir != entB.dir:
			out = append(out, DiffEntry{p, "type-changed"})
		case entA.dir:
			// Same directory entry on both sides.
		case entA.fileID != entB.fileID:
			out = append(out, DiffEntry{p, "replaced"})
		default:
			same, err := s.sameContent(entA.fileID, chainA, chainB)
			if err != nil {
				return nil, err
			}
			if !same {
				out = append(out, DiffEntry{p, "modified"})
			}
		}
	}
	return out, nil
}

// sameContent compares one file's effective state under two epoch chains
// by extent identity (no data reads).
func (s *SnapFS) sameContent(fileID uint64, chainA, chainB []uint64) (bool, error) {
	s.mu.Lock()
	img, err := s.imageForLocked(fileID)
	s.mu.Unlock()
	if err != nil {
		return false, err
	}
	return img.sameUnder(chainA, chainB)
}
