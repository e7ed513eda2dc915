// Package vm implements the Spring virtual memory architecture that the
// extensible file system architecture builds on (Section 3.3 of the paper).
//
// The two central ideas reproduced here:
//
//  1. The *memory object* (an abstraction of store that can be mapped into
//     address spaces; it has length operations and a bind operation) is
//     separated from the *pager object* (which provides the contents via
//     page_in/page_out). This separation lets the implementor of a memory
//     object live somewhere other than the implementor of its pager — it is
//     what allows DFS to hand out file_DFS memory objects whose local page
//     traffic goes straight to SFS (Figure 7), and CFS to reroute a VMM to a
//     remote DFS pager (Section 6.2). Contrast with Mach, whose memory
//     object carries the paging operations (Table 1).
//
//  2. Data is kept coherent through two-way *pager object ↔ cache object*
//     connections. A cache manager obtains data by invoking the pager
//     object; the data provider performs coherency actions by invoking the
//     cache object. A VMM is one kind of cache manager, but anybody can
//     implement cache objects — in particular a stacked file system layer
//     can act as a cache manager to the layer below it, which is the hook
//     the whole stacking architecture hangs off (Section 4.2, Figure 4).
//
// The cache object and pager object interfaces below transcribe Appendix A
// and Appendix B of the paper.
//
// # Vocabulary
//
// The package's terms, as its own types use them:
//
//   - MemoryObject: mappable store — length operations plus Bind; no data
//     operations. A file is one (fsys.File embeds it).
//   - PagerObject: the provider half of a connection — PageIn, PageOut,
//     Sync, WriteOut. Obtained from Bind, never constructed directly.
//   - CacheObject: the consumer half — the provider calls FlushBack,
//     DenyWrites, DeleteRange against whoever holds cached pages.
//   - CacheManager: anything that offers a CacheObject when it binds; the
//     per-node VMM is one, a stacked layer (COMPFS, coherency) is another.
//   - CacheRights: the revocable token Bind returns; Narrow-able proof of
//     an established connection.
//   - VMM / FileCache / Mapping: this package's cache manager — per-node
//     page caches over any pager, plus mapped-file views for address
//     spaces.
package vm

import (
	"errors"
	"fmt"

	"springfs/internal/spring"
)

// PageSize is the virtual memory page size in bytes. It equals the block
// size used by the per-block coherency protocol and the disk block size.
const PageSize = 4096

// Offset is a byte offset or size within a memory object.
type Offset = int64

// Rights describes the access mode of cached data or of a mapping.
type Rights uint8

// Access rights. Write access implies read access.
const (
	// RightsNone grants nothing.
	RightsNone Rights = 0
	// RightsRead grants read-only access.
	RightsRead Rights = 1
	// RightsWrite grants read-write access.
	RightsWrite Rights = 3
)

// RightsNoData is not an access right but a modifier on the access argument
// of a write page-in: the cache manager is about to overwrite every byte of
// the range (or already holds its current bytes read-only), so it needs the
// pager's coherency action — the write grant — and none of the data. A pager
// that honours it returns an empty slice; one that does not know the bit
// sees plain write access (CanWrite still holds) and returns the data, which
// the requester ignores. The bit rides the access argument because that
// already crosses every pager proxy and the DFS wire; it exists only for the
// duration of the call — a pager strips it with Access before recording
// what a holder holds, and no cached page ever carries it.
const RightsNoData Rights = 4

// NoData reports whether a page-in's access argument asks for the grant
// alone (see RightsNoData). Only a write request can: read rights without
// the data are no use to anyone.
func (r Rights) NoData() bool { return r&RightsNoData != 0 && r.CanWrite() }

// Access returns the rights proper, without the RightsNoData modifier.
func (r Rights) Access() Rights { return r &^ RightsNoData }

// CanRead reports whether the rights allow reading.
func (r Rights) CanRead() bool { return r&RightsRead != 0 }

// CanWrite reports whether the rights allow writing.
func (r Rights) CanWrite() bool { return r&RightsWrite == RightsWrite }

// Includes reports whether r grants at least the access of want.
func (r Rights) Includes(want Rights) bool { return r&want == want }

// String implements fmt.Stringer.
func (r Rights) String() string {
	switch r {
	case RightsNone:
		return "none"
	case RightsRead:
		return "read-only"
	case RightsWrite:
		return "read-write"
	default:
		return fmt.Sprintf("Rights(%d)", uint8(r))
	}
}

// Errors returned by the virtual memory system.
var (
	// ErrUnaligned is returned when an offset or size is not page-aligned.
	ErrUnaligned = errors.New("vm: offset or size not page aligned")
	// ErrNoAccess is returned when an operation exceeds the granted rights.
	ErrNoAccess = errors.New("vm: access rights insufficient")
	// ErrBadRights is returned when a bind result does not identify a
	// connection at this cache manager.
	ErrBadRights = errors.New("vm: cache rights not recognized")
	// ErrDestroyed is returned when using a destroyed cache or unmapped
	// mapping.
	ErrDestroyed = errors.New("vm: destroyed")
)

// Data is one extent of page-aligned file data, as returned by the cache
// object operations that hand modified blocks back to the pager.
type Data struct {
	// Offset is the page-aligned byte offset within the memory object.
	Offset Offset
	// Bytes holds the data; len(Bytes) is a multiple of PageSize.
	Bytes []byte
}

// CacheObject is the interface cache managers export to pagers (Appendix A
// of the paper). Pagers invoke these operations to perform coherency
// actions against data cached by the manager.
type CacheObject interface {
	// FlushBack removes data in [offset, offset+size) from the cache and
	// returns the modified blocks to the pager.
	FlushBack(offset, size Offset) []Data
	// DenyWrites downgrades read-write blocks in the range to read-only
	// and returns the modified blocks to the pager.
	DenyWrites(offset, size Offset) []Data
	// WriteBack returns modified blocks in the range to the pager. Data is
	// retained in the cache in the same mode as before the call.
	WriteBack(offset, size Offset) []Data
	// DeleteRange removes data in the range from the cache; no data is
	// returned.
	DeleteRange(offset, size Offset)
	// ZeroFill indicates that the range is zero-filled: the cache may
	// materialise zero pages for it without paging in.
	ZeroFill(offset, size Offset)
	// Populate introduces data into the cache with the given access
	// rights.
	Populate(offset, size Offset, access Rights, data []byte)
	// DestroyCache tears the cache down; subsequent faults fail.
	DestroyCache()
}

// NopCache is the cache object of a manager that holds no pages: every
// coherency action finds nothing to return and nothing to drop. A layer
// that caches something else about the file (attributes, a block table)
// embeds it and overrides the actions that concern it.
type NopCache struct{}

var _ CacheObject = NopCache{}

func (NopCache) FlushBack(offset, size Offset) []Data                     { return nil }
func (NopCache) DenyWrites(offset, size Offset) []Data                    { return nil }
func (NopCache) WriteBack(offset, size Offset) []Data                     { return nil }
func (NopCache) DeleteRange(offset, size Offset)                          {}
func (NopCache) ZeroFill(offset, size Offset)                             {}
func (NopCache) DestroyCache()                                            {}
func (NopCache) Populate(offset, size Offset, access Rights, data []byte) {}

// UnreachableCache is an optional extension of CacheObject for caches that
// live across a network boundary. A pager may narrow a cache object to it
// before trusting a revocation result: an unreachable cache returns empty
// extents not because nothing is dirty but because the holder is gone, and
// the pager should drop the holder rather than wait on it again. Local
// cache objects do not implement this — they are always reachable.
type UnreachableCache interface {
	CacheObject
	// Unreachable reports whether coherency actions against this cache
	// can no longer be delivered (dead connection, timed-out callbacks).
	Unreachable() bool
}

// MemoryObject is an abstraction of store that can be mapped into address
// spaces (Appendix B). Note the absence of paging or read/write operations:
// contents are provided by a pager object reached through Bind. The Spring
// file interface inherits from MemoryObject.
type MemoryObject interface {
	// Bind establishes (or reuses) a pager-cache connection between the
	// memory object's pager and the calling cache manager, returning a
	// cache-rights object that the caller uses to locate the connection
	// and any pages already cached for an equivalent memory object.
	Bind(caller CacheManager, access Rights, offset, length Offset) (CacheRights, error)
	// GetLength returns the length of the memory object.
	GetLength() (Offset, error)
	// SetLength sets the length of the memory object.
	SetLength(length Offset) error
}

// PagerObject is the interface pagers export to cache managers (Appendix
// B). Cache managers invoke these operations to obtain and write out data.
type PagerObject interface {
	// PageIn requests data in [offset, offset+size) in read-only or
	// read-write mode. The returned slice is size bytes long — or empty,
	// when access carried RightsNoData and the pager granted write access
	// to the whole range without moving its bytes.
	PageIn(offset, size Offset, access Rights) ([]byte, error)
	// PageOut writes data to the pager; the caller no longer retains it.
	PageOut(offset, size Offset, data []byte) error
	// WriteOut writes data to the pager; the caller retains it read-only.
	WriteOut(offset, size Offset, data []byte) error
	// Sync writes data to the pager; the caller retains it in the same
	// mode as before.
	Sync(offset, size Offset, data []byte) error
	// DoneWithPagerObject is called by the cache manager when it closes
	// its end of the connection.
	DoneWithPagerObject()
}

// HintedPager is the optional extension discussed in the paper's future
// work (Section 8): the cache manager conveys the minimum and maximum
// amount of data required during a page-in, and the pager may return more
// data than strictly needed (read-ahead / clustering). Cache managers
// discover it by narrowing the pager object.
type HintedPager interface {
	PagerObject
	// PageInHint is like PageIn but the pager may return any amount of
	// data between minSize and maxSize (page-multiple, starting at
	// offset).
	PageInHint(offset, minSize, maxSize Offset, access Rights) ([]byte, error)
}

// CacheRights identifies a pager-cache connection at the cache manager that
// issued it. If two equivalent memory objects (two memory objects referring
// to the same underlying file) are bound, the same cache-rights object is
// returned, so the manager caches the file's pages once.
type CacheRights interface {
	// RightsID is the manager-unique identifier of the connection.
	RightsID() uint64
	// ManagerName names the cache manager that issued the rights.
	ManagerName() string
}

// RightsToken is the CacheRights every cache manager in the tree issues: the
// connection's identifier at the manager, and the manager's name.
type RightsToken struct {
	ID      uint64
	Manager string
}

func (r RightsToken) RightsID() uint64    { return r.ID }
func (r RightsToken) ManagerName() string { return r.Manager }

// CacheManager is implemented by anyone who caches memory-object data: the
// per-node VMM, and file system layers that keep themselves coherent with
// the layer below by acting as cache managers for its files.
type CacheManager interface {
	// ManagerName identifies the manager (used in bind requests).
	ManagerName() string
	// ManagerDomain is the domain the manager's cache objects are served
	// from; pagers connect their invocation channels to it.
	ManagerDomain() *spring.Domain
	// NewConnection is invoked (indirectly, during bind) by a pager that
	// has no connection for the memory object yet: the pager supplies its
	// pager object and the manager returns its cache object together with
	// a fresh cache-rights token. This is the object exchange of Section
	// 3.3.2.
	NewConnection(pager PagerObject) (CacheObject, CacheRights)
}

// PageAligned reports whether offset and size are page-aligned.
func PageAligned(offset, size Offset) bool {
	return offset%PageSize == 0 && size%PageSize == 0 && offset >= 0 && size >= 0
}

// PageRange returns the page numbers covering [offset, offset+size).
func PageRange(offset, size Offset) (first, last int64) {
	first = offset / PageSize
	last = (offset + size - 1) / PageSize
	return first, last
}

// RoundUp rounds n up to the next page boundary.
func RoundUp(n Offset) Offset {
	return (n + PageSize - 1) / PageSize * PageSize
}
