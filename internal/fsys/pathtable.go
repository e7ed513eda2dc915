package fsys

import (
	"strings"
	"sync"
	"sync/atomic"

	"springfs/internal/naming"
)

// PathHandle is what a PathTable keeps in each file wrapper, which embeds
// it: the path it is filed under and the count of open handles on it.
type PathHandle struct {
	path     atomic.Pointer[string]
	retained atomic.Int64
}

// Path returns the path the wrapper was last filed under.
func (h *PathHandle) Path() string { return *h.path.Load() }

// Retained reports the outstanding Retain balance.
func (h *PathHandle) Retained() int64 { return h.retained.Load() }

func (h *PathHandle) pathHandle() *PathHandle { return h }

// PathTable is the handle table of a path-keyed layer: one wrapper per
// path, so retained handles, the append fallback's per-file lock and the
// pager connection all share identity. A wrapper whose name goes away
// while handles retain it — its storage lives on below, behind them only —
// is an orphan until the last Release. The zero value is an empty table.
type PathTable[F interface {
	comparable
	pathHandle() *PathHandle
}] struct {
	mu      sync.Mutex
	files   map[string]F
	orphans map[F]struct{}
}

// Lookup returns the wrapper filed under path.
func (t *PathTable[F]) Lookup(path string) (F, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, ok := t.files[path]
	return f, ok
}

// LookupOrAdd returns the wrapper filed under path, filing mk() on first
// sight. mk runs under the table lock and must not call back into it.
func (t *PathTable[F]) LookupOrAdd(path string, mk func() F) F {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f, ok := t.files[path]; ok {
		return f
	}
	if t.files == nil {
		t.files, t.orphans = make(map[string]F), make(map[F]struct{})
	}
	f := mk()
	filed := path // what escapes, so that a hit allocates nothing
	f.pathHandle().path.Store(&filed)
	t.files[path] = f
	return f
}

// Remove unfiles path once the layer has unlinked it below. It returns the
// displaced wrapper (the zero F if none) and whether open handles still
// retain it, in which case it is now an orphan.
func (t *PathTable[F]) Remove(path string) (displaced F, retained bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropLocked(path)
}

func (t *PathTable[F]) dropLocked(path string) (f F, retained bool) {
	f, ok := t.files[path]
	if !ok {
		return f, false
	}
	delete(t.files, path)
	if retained = f.pathHandle().Retained() > 0; retained {
		t.orphans[f] = struct{}{}
	}
	return f, retained
}

// Rename re-files the wrapper at oldPath under newPath once the layer has
// renamed below, displacing an overwritten destination like Remove does.
// Renaming a path onto itself displaces nothing. dir says the name was a
// directory — only the layer can know — and then every wrapper filed or
// orphaned under oldPath/ moves with it, open handles and all: left
// behind, one would be handed to the next file created at its old path.
func (t *PathTable[F]) Rename(oldPath, newPath string, dir bool) (displaced F, retained bool) {
	if oldPath == newPath {
		return displaced, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	displaced, retained = t.dropLocked(newPath)
	if f, ok := t.files[oldPath]; ok {
		delete(t.files, oldPath)
		f.pathHandle().path.Store(&newPath)
		t.files[newPath] = f
	}
	if !dir {
		return displaced, retained
	}
	prefix := oldPath + "/"
	rekey := func(f F) {
		if rest, under := strings.CutPrefix(f.pathHandle().Path(), prefix); under {
			to := newPath + "/" + rest
			f.pathHandle().path.Store(&to)
		}
	}
	var under []F // re-filed after the range: a moved key could be visited again
	for path, f := range t.files {
		if strings.HasPrefix(path, prefix) {
			delete(t.files, path)
			under = append(under, f)
		}
	}
	for _, f := range under {
		rekey(f)
		t.files[f.pathHandle().Path()] = f
	}
	for f := range t.orphans {
		rekey(f)
	}
	return displaced, retained
}

// IsDirAt reports whether name resolves on fs to a directory. A path-keyed
// layer that has just renamed a name it holds no wrapper for — a file
// nobody opened, or a directory — asks it of the file system below, to
// tell Rename which.
func IsDirAt(fs naming.Context, name string, cred naming.Credentials) bool {
	obj, err := fs.Resolve(name, cred)
	if err != nil {
		return false
	}
	_, isFile := obj.(File)
	return !isFile
}

// Retain records one more open handle on f.
func (t *PathTable[F]) Retain(f F) { f.pathHandle().retained.Add(1) }

// Release drops one handle; the last one takes f out of the orphan set.
func (t *PathTable[F]) Release(f F) {
	if f.pathHandle().retained.Add(-1) <= 0 {
		t.mu.Lock()
		delete(t.orphans, f)
		t.mu.Unlock()
	}
}

// Snapshot returns the filed wrappers by path and the orphans: what a
// layer walks to rebuild a backend.
func (t *PathTable[F]) Snapshot() (filed map[string]F, orphans []F) {
	t.mu.Lock()
	defer t.mu.Unlock()
	filed = make(map[string]F, len(t.files))
	for path, f := range t.files {
		filed[path] = f
	}
	for f := range t.orphans {
		orphans = append(orphans, f)
	}
	return filed, orphans
}
