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
// block owned by an ancestor copies it on write (allocates a new block
// tagged E) so the ancestor's — the snapshot's — version is never touched.
// Unmodified blocks are therefore *shared*: every epoch reads the same
// bytes of the same underlying file, so the layers below cache exactly one
// copy per physical page no matter how many clones read it (the sharing
// rides the ordinary cache-manager/pager protocol of the stack — SNAPFS
// adds no cache of its own).
//
// Names follow the same rule. An epoch records only the names it changed:
// new bindings, and whiteouts for names an ancestor binds. A lookup at E
// walks E's parent chain, nearest epoch first, and the first epoch that
// mentions the name decides.
//
// # On-disk layout
//
// SNAPFS stores per-file images in the underlying file system, named
// ".sfd-<fileID>" (file identity survives rename/unlink, like an inode
// number). ".snapmeta" holds the epoch tree and ".snapmeta-<epoch>" the
// names one epoch changed. Each is committed whole by fsys.CommitFile, so
// a power cut lands on its old or its new content. A name operation
// commits only its own epoch's names file; Snapshot and Clone commit only
// the tree. See docs/SNAPSHOTS.md for the formats.
package snapfs

import (
	"errors"
	"fmt"
	"maps"
	"slices"
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

// Metadata and image names in the underlying file system. An epoch's
// names file is treeName-<epoch>; each commits through a ".tmp" sibling.
const (
	treeName    = ".snapmeta"
	imagePrefix = ".sfd-"
)

// Metadata file headers.
const (
	treeHeader  = "snapfs-tree v2"
	namesHeader = "snapfs-names v2"
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
	// ErrBadManifest means a stored tree or names file does not parse.
	ErrBadManifest = errors.New("snapfs: bad manifest")
	// ErrNoSnapshot means the named snapshot does not exist.
	ErrNoSnapshot = errors.New("snapfs: no such snapshot")
	// ErrSnapshotExists means the snapshot or clone name is taken.
	ErrSnapshotExists = errors.New("snapfs: snapshot or clone name already exists")
)

// nameEntry is one name an epoch changed: a binding, or a whiteout (gone)
// unbinding a name an ancestor binds.
type nameEntry struct {
	dir    bool
	gone   bool
	fileID uint64
}

// epoch is one node of the epoch tree.
type epoch struct {
	id     uint64
	parent uint64 // 0 = none (the root epoch)
	kind   string // kindMain | kindSnapshot | kindClone
	name   string // snapshot/clone name ("" for main)
	names  map[string]nameEntry
}

// epochRef names an epoch from a handle's point of view: either the main
// line (re-resolved on every operation, so a handle opened before a
// snapshot keeps writing to the live file) or a fixed epoch id (snapshot
// and clone views).
type epochRef struct {
	main bool
	id   uint64
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

// ---- metadata ----

// namesName is the underlying file holding epoch ep's names.
func namesName(ep uint64) string { return treeName + "-" + strconv.FormatUint(ep, 10) }

// loadLocked brings the epoch tree and every epoch's names in from below
// (or initialises a fresh store) and sweeps crash leftovers. The id
// counters are not stored: they restart past the highest id in use.
// Caller holds s.mu.
func (s *SnapFS) loadLocked() error {
	if s.loaded {
		return nil
	}
	if s.under == nil {
		return fsys.ErrNotStacked
	}
	s.nextFile = 1
	raw, err := fsys.ReadFile(s.under, treeName, naming.Root)
	if fsys.IsNotFound(err) {
		// Fresh store (or one cut before its first commit): epoch 1 is the
		// main epoch.
		s.sweepLocked()
		err = s.commitTreeLocked(&epoch{id: 1, kind: kindMain})
		s.loaded = err == nil
		return err
	}
	if err != nil {
		return err
	}
	epochs, current, err := decodeTree(raw)
	if err != nil {
		return err
	}
	for id, e := range epochs {
		s.nextEpoch = max(s.nextEpoch, id+1)
		raw, err := fsys.ReadFile(s.under, namesName(id), naming.Root)
		if fsys.IsNotFound(err) {
			continue // the epoch changed no name
		}
		if err == nil {
			e.names, err = decodeNames(raw)
		}
		if err != nil {
			return err
		}
		for _, ent := range e.names {
			s.nextFile = max(s.nextFile, ent.fileID+1)
		}
	}
	s.epochs, s.current = epochs, current
	s.loaded = true
	s.sweepLocked()
	return nil
}

// sweepLocked removes what a power cut can leave below: temporaries of
// metadata commits, names files of epochs the tree does not hold, and
// images no epoch's names bind (a crash between image creation and the
// names commit, or between the commit that dropped a last binding and the
// image removal). Listing the images also moves nextFile past every image
// id in use. Caller holds s.mu with the store loaded.
func (s *SnapFS) sweepLocked() {
	_, _ = fsys.SweepPrefix(s.under, treeName, func(name string) bool {
		id, err := strconv.ParseUint(strings.TrimPrefix(name, treeName+"-"), 10, 64)
		return name == treeName || err == nil && s.epochs[id] != nil
	}, naming.Root)
	live := s.liveFilesLocked()
	_, _ = fsys.SweepPrefix(s.under, imagePrefix, func(name string) bool {
		id, err := strconv.ParseUint(strings.TrimPrefix(name, imagePrefix), 16, 64)
		if err == nil {
			s.nextFile = max(s.nextFile, id+1)
		}
		return err != nil || live[id]
	}, naming.Root)
}

// liveFilesLocked is the set of file ids some epoch's names bind. Caller
// holds s.mu with the store loaded.
func (s *SnapFS) liveFilesLocked() map[uint64]bool {
	live := make(map[uint64]bool)
	for _, e := range s.epochs {
		for _, ent := range e.names {
			if !ent.dir && !ent.gone {
				live[ent.fileID] = true
			}
		}
	}
	return live
}

// commitTreeLocked commits the epoch tree with changed added or replaced,
// and installs it only once the commit succeeded. Caller holds s.mu.
func (s *SnapFS) commitTreeLocked(changed ...*epoch) error {
	epochs := maps.Clone(s.epochs)
	for _, e := range changed {
		epochs[e.id] = e
	}
	if err := fsys.CommitFile(s.under, treeName+".tmp", treeName, encodeTree(epochs), naming.Root); err != nil {
		return err
	}
	snapManifests.Inc()
	s.epochs = epochs
	for _, e := range changed {
		s.nextEpoch = max(s.nextEpoch, e.id+1)
		if e.kind == kindMain {
			s.current = e.id
		}
	}
	return nil
}

// editNamesLocked runs edit on a copy of the names of chain's own epoch
// (chain[0]), commits that epoch's names file, and installs the copy only
// once the commit succeeded, so a failed commit leaves the view as it
// was. Caller holds s.mu.
func (s *SnapFS) editNamesLocked(chain []uint64, edit func(names map[string]nameEntry)) error {
	e := s.epochs[chain[0]]
	names := make(map[string]nameEntry, len(e.names)+1)
	maps.Copy(names, e.names)
	edit(names)
	file := namesName(e.id)
	if err := fsys.CommitFile(s.under, file+".tmp", file, encodeNames(names), naming.Root); err != nil {
		return err
	}
	snapManifests.Inc()
	e.names = names
	return nil
}

// encodeTree serialises the epoch tree: one "<id> <parent> <kind>
// <%q-name>" line per epoch, ids ascending, so every parent precedes its
// children.
func encodeTree(epochs map[uint64]*epoch) []byte {
	ids := make([]uint64, 0, len(epochs))
	for id := range epochs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	b := []byte(treeHeader + "\n")
	for _, id := range ids {
		e := epochs[id]
		b = fmt.Appendf(b, "%d %d %s %q\n", e.id, e.parent, e.kind, e.name)
	}
	return b
}

// encodeNames serialises one epoch's names: one "<file|dir|gone> <fileID>
// <%q-path>" line per name.
func encodeNames(names map[string]nameEntry) []byte {
	b := []byte(namesHeader + "\n")
	for p, ent := range names {
		kind := "file"
		if ent.gone {
			kind = "gone"
		} else if ent.dir {
			kind = "dir"
		}
		b = fmt.Appendf(b, "%s %d %q\n", kind, ent.fileID, p)
	}
	return b
}

// decodeRecords parses a metadata file: after the header line, one record
// of n space-separated fields per line, the last of them %q-quoted (and
// handed to record unquoted). A record that record refuses is an error.
func decodeRecords(raw []byte, header string, n int, record func(f []string) bool) error {
	lines := strings.Split(string(raw), "\n")
	if lines[0] != header {
		return fmt.Errorf("%w: header %.40q, want %q", ErrBadManifest, lines[0], header)
	}
	for _, line := range lines[1:] {
		f := strings.SplitN(line, " ", n)
		var err error
		if len(f) == n {
			f[n-1], err = strconv.Unquote(f[n-1])
		}
		if line != "" && (len(f) != n || err != nil || !record(f)) {
			return fmt.Errorf("%w: %.80q", ErrBadManifest, line)
		}
	}
	return nil
}

// decodeTree parses the tree file and returns the epochs and the main
// one. Ids must ascend and every parent must precede its children, so
// every chain ends at a root; exactly one epoch must be main.
func decodeTree(raw []byte) (map[uint64]*epoch, uint64, error) {
	epochs := make(map[uint64]*epoch)
	var prev, current uint64
	mains := 0
	err := decodeRecords(raw, treeHeader, 4, func(f []string) bool {
		id, err1 := strconv.ParseUint(f[0], 10, 64)
		parent, err2 := strconv.ParseUint(f[1], 10, 64)
		if err1 != nil || err2 != nil || id <= prev || parent != 0 && epochs[parent] == nil {
			return false
		}
		switch f[2] {
		case kindMain:
			current = id
			mains++
		case kindSnapshot, kindClone:
		default:
			return false
		}
		epochs[id], prev = &epoch{id: id, parent: parent, kind: f[2], name: f[3]}, id
		return true
	})
	if err == nil && mains != 1 {
		err = fmt.Errorf("%w: %d main epochs", ErrBadManifest, mains)
	}
	return epochs, current, err
}

// decodeNames parses one epoch's names file.
func decodeNames(raw []byte) (map[string]nameEntry, error) {
	names := make(map[string]nameEntry)
	err := decodeRecords(raw, namesHeader, 3, func(f []string) bool {
		id, err := strconv.ParseUint(f[1], 10, 64)
		ent := nameEntry{dir: f[0] == "dir", gone: f[0] == "gone", fileID: id}
		names[f[2]] = ent
		return err == nil && f[2] != "" && (f[0] == "file" || ent.dir || ent.gone)
	})
	return names, err
}

// ---- epoch plumbing ----

// chainFor returns the epoch chain for ref, nearest first (the epoch
// itself, then its ancestors to the root).
func (s *SnapFS) chainFor(ref epochRef) ([]uint64, error) {
	defer s.unlockChain(false)
	return s.lockChain(ref, false)
}

func (s *SnapFS) chainForLocked(ref epochRef) ([]uint64, error) {
	id := ref.id
	if ref.main {
		id = s.current
	}
	var chain []uint64
	for id != 0 {
		e, ok := s.epochs[id]
		if !ok {
			return nil, fmt.Errorf("snapfs: epoch %d gone", id)
		}
		chain = append(chain, id)
		id = e.parent
	}
	return chain, nil
}

// lockChain is the preamble of every view operation on names: it takes
// s.mu — behind the read-held epoch gate for a mutation — loads the store
// and resolves ref's chain. The caller defers unlockChain(mutate) whether
// or not it fails.
func (s *SnapFS) lockChain(ref epochRef, mutate bool) ([]uint64, error) {
	if mutate {
		s.epochMu.RLock()
	}
	s.mu.Lock()
	if err := s.loadLocked(); err != nil {
		return nil, err
	}
	return s.chainForLocked(ref)
}

func (s *SnapFS) unlockChain(mutate bool) {
	s.mu.Unlock()
	if mutate {
		s.epochMu.RUnlock()
	}
}

// lookupLocked resolves path through chain, nearest epoch first, the way
// a block resolves: the first epoch that mentions the name decides.
func (s *SnapFS) lookupLocked(chain []uint64, path string) (nameEntry, bool) {
	for _, ep := range chain {
		if ent, ok := s.epochs[ep].names[path]; ok {
			return ent, !ent.gone
		}
	}
	return nameEntry{}, false
}

// mergedLocked is chain's whole name space: the epochs' names applied
// root first, so a nearer binding or whiteout wins.
func (s *SnapFS) mergedLocked(chain []uint64) map[string]nameEntry {
	out := make(map[string]nameEntry)
	for i := len(chain) - 1; i >= 0; i-- {
		for p, ent := range s.epochs[chain[i]].names {
			if ent.gone {
				delete(out, p)
			} else {
				out[p] = ent
			}
		}
	}
	return out
}

// unbindLocked removes path from names, the edited copy of chain[0]'s:
// a whiteout if an ancestor binds it, otherwise the epoch's own binding
// simply goes.
func (s *SnapFS) unbindLocked(names map[string]nameEntry, chain []uint64, path string) {
	if _, ok := s.lookupLocked(chain[1:], path); ok {
		names[path] = nameEntry{gone: true}
	} else {
		delete(names, path)
	}
}

// hasChildren reports whether a name in names lies below directory dir.
func hasChildren(names map[string]nameEntry, dir string) bool {
	for p := range names {
		if strings.HasPrefix(p, dir+"/") {
			return true
		}
	}
	return false
}

// imageName is the underlying file name for a file identity.
func imageName(fileID uint64) string { return fmt.Sprintf("%s%016x", imagePrefix, fileID) }

// imageForLocked returns (opening if needed) the shared image for fileID.
// Caller holds s.mu with the store loaded.
func (s *SnapFS) imageForLocked(fileID uint64) (*snapImage, error) {
	if img, ok := s.files[fileID]; ok {
		return img, nil
	}
	lower, err := s.under.Open(imageName(fileID), naming.Root)
	if err != nil {
		return nil, err
	}
	img := newSnapImage(s, fileID, lower)
	s.files[fileID] = img
	return img, nil
}

// handleForLocked returns the canonical view handle for (fileID, ref).
// Caller holds s.mu with the store loaded.
func (s *SnapFS) handleForLocked(fileID uint64, ref epochRef, writable bool) (*snapFile, error) {
	img, err := s.imageForLocked(fileID)
	if err != nil {
		return nil, err
	}
	img.mu.Lock()
	defer img.mu.Unlock()
	if f, ok := img.handles[ref]; ok {
		return f, nil
	}
	f := &snapFile{
		img:      img,
		ref:      ref,
		writable: writable,
		backing:  s.nextBacking.Add(1),
	}
	img.handles[ref] = f
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

// mutablePath checks that the view is writable and returns name as a path
// in it.
func (v *SnapView) mutablePath(name string) (string, error) {
	if !v.writable {
		return "", fsys.ErrReadOnly
	}
	path := cleanPath(name)
	if path == "" {
		return "", naming.ErrBadName
	}
	return path, nil
}

// checkParentLocked validates that path's parent is a directory chain
// binds.
func (s *SnapFS) checkParentLocked(chain []uint64, path string) error {
	i := strings.LastIndex(path, "/")
	if i < 0 {
		return nil
	}
	parent := path[:i]
	ent, ok := s.lookupLocked(chain, parent)
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
	path, err := v.mutablePath(name)
	if err != nil {
		return nil, err
	}
	s, ref := v.s, v.ref
	chain, err := s.lockChain(ref, true)
	defer s.unlockChain(true)
	if err != nil {
		return nil, err
	}
	if ent, ok := s.lookupLocked(chain, path); ok {
		if ent.dir {
			return nil, fmt.Errorf("snapfs: %s: %w", path, fsys.ErrIsDirectory)
		}
		// POSIX creat over an existing file truncates it in place.
		f, err := s.handleForLocked(ent.fileID, ref, true)
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
	if err := s.checkParentLocked(chain, path); err != nil {
		return nil, err
	}
	fileID := s.nextFile
	s.nextFile++
	lower, err := s.under.Create(imageName(fileID), naming.Root)
	if err != nil {
		return nil, err
	}
	if err := s.editNamesLocked(chain, func(names map[string]nameEntry) {
		names[path] = nameEntry{fileID: fileID}
	}); err != nil {
		// The image is an orphan the next load sweeps; drop it eagerly.
		_ = s.under.Remove(imageName(fileID), naming.Root)
		return nil, err
	}
	s.files[fileID] = newSnapImage(s, fileID, lower)
	return s.handleForLocked(fileID, ref, true)
}

// Remove implements fsys.FS: it unlinks a file or empty directory from a
// writable epoch. The image file is removed from the underlying store only
// once *no* epoch references it; retained upper handles keep it alive
// below through the ordinary retained-handle protocol.
func (v *SnapView) Remove(name string, cred naming.Credentials) error {
	path, err := v.mutablePath(name)
	if err != nil {
		return err
	}
	s := v.s
	chain, err := s.lockChain(v.ref, true)
	defer s.unlockChain(true)
	if err != nil {
		return err
	}
	ent, ok := s.lookupLocked(chain, path)
	if !ok {
		return fmt.Errorf("snapfs: %s: %w", path, naming.ErrNotFound)
	}
	if ent.dir && hasChildren(s.mergedLocked(chain), path) {
		return fmt.Errorf("snapfs: %s: directory not empty", path)
	}
	if err := s.editNamesLocked(chain, func(names map[string]nameEntry) {
		s.unbindLocked(names, chain, path)
	}); err != nil {
		return err
	}
	if !ent.dir {
		s.maybeDropImageLocked(ent.fileID)
	}
	return nil
}

// maybeDropImageLocked removes the underlying image when no epoch
// references fileID any longer. Open handles keep the lower storage
// alive (the retained-handle chain ends at the disk layer's orphan
// machinery); the wrapper is dropped on the last Release.
func (s *SnapFS) maybeDropImageLocked(fileID uint64) {
	if s.liveFilesLocked()[fileID] {
		return
	}
	if img, ok := s.files[fileID]; ok {
		img.mu.Lock()
		img.orphan = true
		if img.refs == 0 {
			delete(s.files, fileID)
		}
		img.mu.Unlock()
	}
	_ = s.under.Remove(imageName(fileID), naming.Root)
}

// Rename implements fsys.FS: it atomically renames within a writable
// epoch, replacing an existing destination (whose image follows the
// unreferenced-image rule). Directories move with their whole subtree.
func (v *SnapView) Rename(oldname, newname string, cred naming.Credentials) error {
	oldPath, err := v.mutablePath(oldname)
	if err != nil {
		return err
	}
	newPath, err := v.mutablePath(newname)
	if err != nil {
		return err
	}
	s := v.s
	chain, err := s.lockChain(v.ref, true)
	defer s.unlockChain(true)
	if err != nil {
		return err
	}
	oldEnt, ok := s.lookupLocked(chain, oldPath)
	if !ok {
		return fmt.Errorf("snapfs: %s: %w", oldPath, naming.ErrNotFound)
	}
	if oldPath == newPath {
		return nil
	}
	if err := s.checkParentLocked(chain, newPath); err != nil {
		return err
	}
	if oldEnt.dir && strings.HasPrefix(newPath, oldPath+"/") {
		return fmt.Errorf("snapfs: cannot move %s inside itself", oldPath)
	}
	destEnt, replaces := s.lookupLocked(chain, newPath)
	if replaces && destEnt.dir && hasChildren(s.mergedLocked(chain), newPath) {
		return fmt.Errorf("snapfs: %s: directory not empty", newPath)
	}
	moves := map[string]nameEntry{oldPath: oldEnt}
	if oldEnt.dir {
		for p, ent := range s.mergedLocked(chain) {
			if strings.HasPrefix(p, oldPath+"/") {
				moves[p] = ent
			}
		}
	}
	if err := s.editNamesLocked(chain, func(names map[string]nameEntry) {
		for p := range moves {
			s.unbindLocked(names, chain, p)
		}
		for p, ent := range moves {
			names[newPath+strings.TrimPrefix(p, oldPath)] = ent
		}
	}); err != nil {
		return err
	}
	if replaces && !destEnt.dir {
		s.maybeDropImageLocked(destEnt.fileID)
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
	chain, err := s.lockChain(ref, false)
	defer s.unlockChain(false)
	if err != nil {
		return nil, err
	}
	ent, ok := s.lookupLocked(chain, path)
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
	chain, err := s.lockChain(ref, false)
	defer s.unlockChain(false)
	if err != nil {
		return nil, err
	}
	prefix := ""
	if dir != "" {
		prefix = dir + "/"
	}
	var out []naming.Binding
	for p, ent := range s.mergedLocked(chain) {
		rest, ok := strings.CutPrefix(p, prefix)
		if !ok || rest == "" || strings.Contains(rest, "/") {
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
	path, err := v.mutablePath(name)
	if err != nil {
		return nil, err
	}
	s := v.s
	chain, err := s.lockChain(v.ref, true)
	defer s.unlockChain(true)
	if err != nil {
		return nil, err
	}
	if _, ok := s.lookupLocked(chain, path); ok {
		return nil, fmt.Errorf("snapfs: %s: %w", path, naming.ErrExists)
	}
	if err := s.checkParentLocked(chain, path); err != nil {
		return nil, err
	}
	if err := s.editNamesLocked(chain, func(names map[string]nameEntry) {
		names[path] = nameEntry{dir: true}
	}); err != nil {
		return nil, err
	}
	return v.Dir(path), nil
}

// ---- snapshot / clone / diff ----

// Snapshot seals the current main epoch under name and opens a fresh main
// epoch. It is O(1) in file data: dirty image *tables* are flushed and the
// store synced (so the frozen epoch is durable), but no file data is
// copied — blocks are already tagged with the epoch that wrote them — and
// no name is copied either: the fresh epoch starts with no names of its
// own and sees the sealed epoch's through its chain.
func (s *SnapFS) Snapshot(name string) error {
	if name == "" {
		return fmt.Errorf("snapfs: empty snapshot name")
	}
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	s.mu.Lock()
	err := s.loadLocked()
	if err == nil && s.findEpochByNameLocked(name) != nil {
		err = fmt.Errorf("%w: %q", ErrSnapshotExists, name)
	}
	s.mu.Unlock()
	// Make the about-to-be-sealed epoch durable: SyncFS flushes the image
	// tables, then barriers the store below. epochMu (held exclusively)
	// keeps any writer from adding to the epoch meanwhile.
	if err == nil {
		err = s.SyncFS()
	}
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sealed := *s.epochs[s.current]
	sealed.kind, sealed.name = kindSnapshot, name
	if err := s.commitTreeLocked(&sealed, &epoch{id: s.nextEpoch, parent: sealed.id, kind: kindMain}); err != nil {
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
	fresh := &epoch{id: s.nextEpoch, parent: snap.id, kind: kindClone, name: cloneName}
	if err := s.commitTreeLocked(fresh); err != nil {
		return nil, err
	}
	snapClones.Inc()
	return s.view(fresh.id, true, cloneName), nil
}

// SnapshotView returns a read-only view of the named snapshot.
func (s *SnapFS) SnapshotView(name string) (*SnapView, error) {
	return s.namedView(kindSnapshot, name)
}

// CloneView returns the writable view of an existing clone (clones
// persist in the epoch tree across remounts).
func (s *SnapFS) CloneView(name string) (*SnapView, error) {
	return s.namedView(kindClone, name)
}

func (s *SnapFS) namedView(kind, name string) (*SnapView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.loadLocked(); err != nil {
		return nil, err
	}
	e := s.findEpochByNameLocked(name)
	if e == nil || e.kind != kind {
		return nil, fmt.Errorf("%w: %s %q", ErrNoSnapshot, kind, name)
	}
	return s.view(e.id, kind == kindClone, name), nil
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

// DiffEntry is one path that differs between two epochs.
type DiffEntry struct {
	Path   string
	Status string // "added", "removed", "replaced", "type-changed", "modified"
}

// chainByNameLocked resolves a diff operand to its chain: "current" (or
// "main") is the main epoch; otherwise a snapshot or clone name.
func (s *SnapFS) chainByNameLocked(name string) ([]uint64, error) {
	if name == "current" || name == "main" {
		return s.chainForLocked(mainRef)
	}
	e := s.findEpochByNameLocked(name)
	if e == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoSnapshot, name)
	}
	return s.chainForLocked(epochRef{id: e.id})
}

// Diff reports the paths that differ between two epochs, each named by a
// snapshot/clone name or "current". Sealed blocks are immutable, so two
// epochs resolving a block to the same physical extent are guaranteed
// byte-identical and the comparison never touches file data.
func (s *SnapFS) Diff(a, b string) ([]DiffEntry, error) {
	s.mu.Lock()
	err := s.loadLocked()
	var chainA, chainB []uint64
	if err == nil {
		chainA, err = s.chainByNameLocked(a)
	}
	if err == nil {
		chainB, err = s.chainByNameLocked(b)
	}
	var tableA, tableB map[string]nameEntry
	if err == nil {
		tableA, tableB = s.mergedLocked(chainA), s.mergedLocked(chainB)
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}

	paths := make([]string, 0, len(tableA)+len(tableB))
	for _, t := range []map[string]nameEntry{tableA, tableB} {
		for p := range t {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	paths = slices.Compact(paths)
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
