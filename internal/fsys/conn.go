package fsys

import (
	"slices"
	"sync"
	"sync/atomic"

	"springfs/internal/spring"
	"springfs/internal/vm"
)

// WrapPager returns a client-side stub for pager reachable over ch,
// preserving the dynamic subtype so narrowing works across domains: an
// fs_pager server yields an fs_pager proxy, a hinted pager a hinted proxy,
// a plain pager a plain proxy. For same-domain channels the implementation
// itself is returned.
func WrapPager(ch *spring.Channel, pager vm.PagerObject) vm.PagerObject {
	if ch.Path() == spring.PathSameDomain {
		return pager
	}
	if fp, ok := pager.(FsPagerObject); ok {
		proxy := NewFsPagerProxy(ch, fp)
		if hp, ok := pager.(vm.HintedPager); ok {
			return &hintedFsPagerProxy{FsPagerObject: proxy, ch: ch, hinted: hp}
		}
		return proxy
	}
	return vm.NewPagerProxy(ch, pager)
}

// hintedFsPagerProxy preserves both the fs_pager and the hinted-pager
// subtypes across a domain boundary, so narrowing works for either.
type hintedFsPagerProxy struct {
	FsPagerObject
	ch     *spring.Channel
	hinted vm.HintedPager
}

var (
	_ FsPagerObject  = (*hintedFsPagerProxy)(nil)
	_ vm.HintedPager = (*hintedFsPagerProxy)(nil)
)

// PageInHint implements vm.HintedPager.
func (p *hintedFsPagerProxy) PageInHint(offset, minSize, maxSize vm.Offset, access vm.Rights) ([]byte, error) {
	var (
		data []byte
		err  error
	)
	p.ch.Call(func() { data, err = p.hinted.PageInHint(offset, minSize, maxSize, access) })
	return data, err
}

// WrapCache is the cache-object counterpart of WrapPager.
func WrapCache(ch *spring.Channel, cache vm.CacheObject) vm.CacheObject {
	if ch.Path() == spring.PathSameDomain {
		return cache
	}
	if fc, ok := cache.(FsCacheObject); ok {
		proxy := NewFsCacheProxy(ch, fc)
		if uc, ok := cache.(vm.UnreachableCache); ok {
			return &unreachableFsCacheProxy{FsCacheObject: proxy, ch: ch, under: uc}
		}
		return proxy
	}
	return vm.NewCacheProxy(ch, cache)
}

// unreachableFsCacheProxy preserves the UnreachableCache subtype across a
// domain boundary, so a pager can tell a dead remote holder from a live one
// by narrowing (a DFS server's forwarding cache is typically in a different
// domain than the coherency layer revoking it).
type unreachableFsCacheProxy struct {
	FsCacheObject
	ch    *spring.Channel
	under vm.UnreachableCache
}

var (
	_ FsCacheObject       = (*unreachableFsCacheProxy)(nil)
	_ vm.UnreachableCache = (*unreachableFsCacheProxy)(nil)
)

// Unreachable implements vm.UnreachableCache.
func (p *unreachableFsCacheProxy) Unreachable() bool {
	var v bool
	p.ch.Call(func() { v = p.under.Unreachable() })
	return v
}

// Connection is one established pager-cache object connection between a
// pager (the owner of the ConnectionTable) and a cache manager.
type Connection struct {
	// Manager is the cache manager on the other end.
	Manager vm.CacheManager
	// Backing identifies the underlying file at the pager.
	Backing uint64
	// Cache is the manager's cache object, wrapped for invocation from
	// the pager's domain. The pager performs coherency actions through
	// it.
	Cache vm.CacheObject
	// FsCache is non-nil when Cache narrowed to fs_cache: the manager is
	// a file system and participates in attribute coherency.
	FsCache FsCacheObject
	// Rights is the cache-rights token the manager issued for the
	// connection; Bind returns it to callers so equivalent memory objects
	// share cached pages.
	Rights vm.CacheRights
	// Pager is the pager object that was handed to the manager
	// (pre-wrapping), retained for DoneWith bookkeeping.
	Pager vm.PagerObject
}

// ConnectionAware is implemented by pager objects that track which
// pager-cache connection they serve (for example, a coherency-layer pager
// adjusts per-connection block holdings). The connection table attaches the
// connection to the pager before the bind completes.
type ConnectionAware interface {
	// AttachConnection hands the pager its connection record.
	AttachConnection(c *Connection)
}

// ConnectionTable implements the pager side of the bind protocol (Section
// 3.3.2): when a bind operation arrives, the pager must determine whether
// there is already a pager-cache connection for the memory object at the
// given cache manager. If not, the pager and the manager exchange pager,
// cache, and cache-rights objects; either way the appropriate cache-rights
// object is returned to the binder.
type ConnectionTable struct {
	domain *spring.Domain // the pager's domain

	// conns holds the connections of each backing file, one per cache
	// manager — a handful at most, so a slice; indexing by backing keeps
	// every per-file query independent of how many files are bound.
	mu    sync.Mutex
	conns map[uint64][]*Connection
	n     int

	// fsCacheConns counts connections whose manager is an fs_cache, so
	// the attribute-coherency fast path is a single atomic load.
	fsCacheConns atomic.Int32

	nextBacking atomic.Uint64 // NewPager's backing identifiers
}

// NewConnectionTable creates a table for a pager served by domain.
func NewConnectionTable(domain *spring.Domain) *ConnectionTable {
	return &ConnectionTable{domain: domain, conns: make(map[uint64][]*Connection)}
}

// Bind returns the cache-rights for (manager, backing), performing the
// object exchange if the connection does not exist yet. mkPager supplies
// the pager object for the backing file; it is only invoked for new
// connections. The boolean result reports whether a new connection was
// created.
func (t *ConnectionTable) Bind(manager vm.CacheManager, backing uint64, mkPager func() vm.PagerObject) (vm.CacheRights, *Connection, bool) {
	t.mu.Lock()
	c := t.find(manager, backing)
	t.mu.Unlock()
	if c != nil {
		return c.Rights, c, false
	}

	// Exchange objects outside the table lock: NewConnection may call
	// back into this pager (and binds for other files must proceed).
	rawPager := mkPager()
	toPager := spring.Connect(manager.ManagerDomain(), t.domain)
	pagerForManager := WrapPager(toPager, rawPager)
	cache, rights := manager.NewConnection(pagerForManager)
	toManager := spring.Connect(t.domain, manager.ManagerDomain())
	wrappedCache := WrapCache(toManager, cache)

	c = &Connection{
		Manager: manager,
		Backing: backing,
		Cache:   wrappedCache,
		Rights:  rights,
		Pager:   rawPager,
	}
	if fc, ok := spring.Narrow[FsCacheObject](wrappedCache); ok {
		c.FsCache = fc
	}
	if ca, ok := rawPager.(ConnectionAware); ok {
		ca.AttachConnection(c)
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if existing := t.find(manager, backing); existing != nil {
		// Lost a bind race; use the established connection.
		return existing.Rights, existing, false
	}
	t.conns[backing] = append(t.conns[backing], c)
	t.n++
	if c.FsCache != nil {
		t.fsCacheConns.Add(1)
	}
	return c.Rights, c, true
}

// find returns the connection for (manager, backing), or nil. Caller holds
// t.mu.
func (t *ConnectionTable) find(manager vm.CacheManager, backing uint64) *Connection {
	for _, c := range t.conns[backing] {
		if c.Manager == manager {
			return c
		}
	}
	return nil
}

// ConnectionsFor returns all connections for a backing file. Pagers
// iterate these to perform coherency actions against every cache manager
// caching the file.
func (t *ConnectionTable) ConnectionsFor(backing uint64) []*Connection {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.conns[backing])
}

// HasFsCache reports whether any connection for backing belongs to an
// fs_cache manager. Pagers use it as a fast path: when only plain cache
// managers (VMMs) are attached there is nobody to run the attribute
// coherency protocol with.
func (t *ConnectionTable) HasFsCache(backing uint64) bool {
	if t.fsCacheConns.Load() == 0 {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.ContainsFunc(t.conns[backing], func(c *Connection) bool { return c.FsCache != nil })
}

// Remove drops the connection for (manager, backing), returning it if it
// existed. Called when a cache manager is done with the pager object.
func (t *ConnectionTable) Remove(manager vm.CacheManager, backing uint64) *Connection {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.find(manager, backing)
	if c == nil {
		return nil
	}
	if rest := slices.DeleteFunc(t.conns[backing], func(o *Connection) bool { return o == c }); len(rest) > 0 {
		t.conns[backing] = rest
	} else {
		delete(t.conns, backing)
	}
	t.n--
	if c.FsCache != nil {
		t.fsCacheConns.Add(-1)
	}
	return c
}

// Len returns the number of established connections.
func (t *ConnectionTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}
