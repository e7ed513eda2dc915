// Package fsys defines the Spring stackable file system interfaces
// (Section 4 of the paper): the file interface (which inherits from the
// memory object interface), the fs_cache/fs_pager attribute-coherency
// subclasses of the cache/pager objects, the stackable_fs interface (which
// inherits from fs and naming_context, Figure 8), the
// stackable_fs_creator interface, and the pager-side connection table used
// by the bind protocol.
//
// Rather than burdening the data-movement cache/pager interfaces with
// file-specific operations, the architecture subclasses them (Section 4.3).
// Because fs_cache and fs_pager objects are subtypes of cache and pager
// objects, they can be passed wherever cache and pager objects are
// expected; each side narrows the object it received to discover whether
// it is talking to a file system or to a plain cache manager such as a
// VMM.
//
// # Vocabulary
//
// The cache/pager vocabulary, as this package refines it:
//
//   - File: a memory object with ReadAt/WriteAt/Stat added. Its contents
//     are reached by mapping or by Bind, never by paging operations on the
//     file itself (Table 1).
//   - FsPagerObject (fs_pager): a pager object extended with attribute
//     operations; what a layer's Bind hands to the cache manager above it.
//   - FsCacheObject (fs_cache): a cache object extended with attribute
//     revocation; what a stacked layer offers the layer below so attribute
//     caches stay coherent alongside data.
//   - StackableFS: fs + naming context (Figure 8) — a layer that can be
//     stacked on (StackOn) and composed into name spaces independently.
//   - Creator: the stackable_fs_creator — the factory a node registers so
//     stacks can be configured at run time (Section 4.4).
//   - Connection / ConnectionTable: the pager side's record of each bound
//     cache manager, keyed the way revocation call-outs need it.
//   - Passthrough, the block helpers, FilePager, PathDir, IdentityFS: the
//     layer kit — the plumbing a new layer inherits instead of copying
//     (DESIGN.md §5, "Writing a layer").
package fsys

import (
	"sync"
	"time"

	"springfs/internal/vm"
)

// Attributes are the file attributes the stackable attribute interface
// caches and keeps coherent: file length plus access and modify times
// (Section 4.3). Future layers are free to subclass further.
type Attributes struct {
	// Length is the file length in bytes.
	Length vm.Offset
	// AccessTime is the time of last read.
	AccessTime time.Time
	// ModifyTime is the time of last write.
	ModifyTime time.Time
}

// FsPagerObject is the fs_pager interface: a pager object extended with
// file attribute operations. A cache manager that narrows its pager object
// to FsPagerObject knows it is talking to a file system and may cache
// attributes.
type FsPagerObject interface {
	vm.PagerObject
	// GetAttributes returns the file's current attributes.
	GetAttributes() (Attributes, error)
	// SetAttributes writes modified attributes back to the file system.
	SetAttributes(Attributes) error
}

// FsCacheObject is the fs_cache interface: a cache object extended with
// attribute coherency operations. A pager that narrows the cache object it
// received to FsCacheObject knows the cache manager is a file system and
// engages it in the attribute coherency protocol.
type FsCacheObject interface {
	vm.CacheObject
	// FlushAttributes returns the manager's cached attributes and whether
	// they were modified since the last flush; the cached copy is
	// invalidated.
	FlushAttributes() (Attributes, bool)
	// PopulateAttributes introduces fresh attributes into the manager's
	// cache (invoked by the pager when attributes change underneath).
	PopulateAttributes(Attributes)
	// InvalidateAttributes drops the manager's cached attributes so the
	// next stat refetches them.
	InvalidateAttributes()
}

// AttrCache is a small coherent attribute cache layers embed to implement
// their FsCacheObject attribute half. The zero value is an empty cache.
type AttrCache struct {
	mu    sync.Mutex
	attrs Attributes
	valid bool
	dirty bool
}

// Get returns the cached attributes and whether they are valid.
func (ac *AttrCache) Get() (Attributes, bool) {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	return ac.attrs, ac.valid
}

// Set caches attrs as clean.
func (ac *AttrCache) Set(attrs Attributes) {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	ac.attrs = attrs
	ac.valid = true
	ac.dirty = false
}

// Update caches attrs as modified (to be written back on flush).
func (ac *AttrCache) Update(attrs Attributes) {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	ac.attrs = attrs
	ac.valid = true
	ac.dirty = true
}

// Mutate applies fn to the cached attributes if valid, marking them
// modified. It reports whether the mutation was applied.
func (ac *AttrCache) Mutate(fn func(*Attributes)) bool {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	if !ac.valid {
		return false
	}
	fn(&ac.attrs)
	ac.dirty = true
	return true
}

// Flush returns the attributes if modified, invalidating the cache either
// way. It implements the FlushAttributes contract.
func (ac *AttrCache) Flush() (Attributes, bool) {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	attrs, dirty := ac.attrs, ac.valid && ac.dirty
	ac.valid = false
	ac.dirty = false
	return attrs, dirty
}

// Invalidate drops the cached attributes.
func (ac *AttrCache) Invalidate() {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	ac.valid = false
	ac.dirty = false
}

// Dirty reports whether the cache holds modified attributes.
func (ac *AttrCache) Dirty() bool {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	return ac.valid && ac.dirty
}
