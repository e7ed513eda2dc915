package dfs

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/stats"
	"springfs/internal/vm"
)

// Server is the home-node half of DFS: a stackable layer on SFS that
// exports the underlying files to remote machines.
//
// For each (remote client, file) pair the server binds to the underlying
// file as a cache manager whose cache object forwards coherency actions
// over the protocol to that client. The underlying coherency layer then
// treats every remote client like any other cache manager: when a local
// client writes, SFS revokes the remote holders through these forwarding
// objects; when a remote client wants to write, its page-in request enters
// SFS's single-writer/multiple-readers protocol, which revokes the local
// caches. This is the P2–C2 composition of Figure 7, generalised to one
// connection per remote client.
//
// Same-machine clients see the pass-through name space of fsys.Passthrough
// with every file wrapped in an fsys.ForwardFile: local binds are forwarded
// to the underlying file, so local clients share the very same cached pages
// as direct clients of file_SFS, and DFS is not involved in local
// page-in/page-out requests (Figure 7).
type Server struct {
	fsys.Passthrough
	domain *spring.Domain

	mu        sync.Mutex
	byID      map[uint64]fsys.File // fileID -> lower file
	idOf      map[any]uint64
	nextID    atomic.Uint64
	listeners []net.Listener
	clients   map[*srvClient]bool
	cred      naming.Credentials

	// cbTimeout bounds server-to-client coherency callbacks, in
	// nanoseconds (atomic: read per new connection).
	cbTimeout atomic.Int64

	// RemoteOps counts protocol requests served; Callbacks counts
	// coherency callbacks issued to remote clients; PageOutOps counts
	// OpPageOut requests specifically — with clustered write-back an
	// N-page dirty run arrives as ~N/64 of these instead of N.
	RemoteOps  stats.Counter
	Callbacks  stats.Counter
	PageOutOps stats.Counter
}

var (
	_ fsys.StackableFS      = (*Server)(nil)
	_ naming.ProxyWrappable = (*Server)(nil)
)

// NewServer creates a DFS server served by domain. Remote operations are
// performed against the underlying file system with cred.
func NewServer(domain *spring.Domain, name string, cred naming.Credentials) *Server {
	s := &Server{
		domain:  domain,
		byID:    make(map[uint64]fsys.File),
		idOf:    make(map[any]uint64),
		clients: make(map[*srvClient]bool),
		cred:    cred,
	}
	s.cbTimeout.Store(int64(DefaultCallbackTimeout))
	s.Init(name, s, func(lower fsys.File) fsys.File { return &fsys.ForwardFile{File: lower} })
	return s
}

// SetCallbackTimeout bounds coherency callbacks issued to remote clients
// (default DefaultCallbackTimeout). It applies to connections accepted
// after the call. A callback that exceeds the bound marks the client
// unreachable, so revocation degrades to dropping the holder instead of
// wedging the block. Zero disables the bound.
func (s *Server) SetCallbackTimeout(d time.Duration) { s.cbTimeout.Store(int64(d)) }

// NewCreator returns a stackable_fs_creator for DFS servers.
func NewCreator(domain *spring.Domain, cred naming.Credentials) fsys.Creator {
	var n atomic.Uint64
	return fsys.CreatorFunc(func(config map[string]string) (fsys.StackableFS, error) {
		name := config["name"]
		if name == "" {
			name = fmt.Sprintf("dfs%d", n.Add(1))
		}
		return NewServer(domain, name, cred), nil
	})
}

// Serve accepts protocol connections on l until it is closed.
func (s *Server) Serve(l net.Listener) {
	s.mu.Lock()
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		s.addClient(conn)
	}
}

// addClient starts serving one protocol connection (exported for tests
// that build connections directly).
func (s *Server) addClient(conn net.Conn) *srvClient {
	c := &srvClient{srv: s, sessions: make(map[uint64]*fsys.LowerConn), retained: make(map[uint64]int)}
	c.peer = newPeer(conn, c.handle, func(error) { c.teardown() })
	c.peer.setTimeout(time.Duration(s.cbTimeout.Load()))
	s.mu.Lock()
	s.clients[c] = true
	s.mu.Unlock()
	c.peer.start()
	return c
}

// Close shuts down listeners and client connections.
func (s *Server) Close() {
	s.mu.Lock()
	ls := s.listeners
	s.listeners = nil
	clients := make([]*srvClient, 0, len(s.clients))
	for c := range s.clients {
		clients = append(clients, c)
	}
	s.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	for _, c := range clients {
		c.peer.Close()
	}
}

// fileID returns (assigning if needed) the protocol id of a lower file.
func (s *Server) fileID(lower fsys.File) uint64 {
	key := fsys.CanonicalKey(lower)
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.idOf[key]; ok {
		return id
	}
	id := s.nextID.Add(1)
	s.idOf[key] = id
	s.byID[id] = lower
	return id
}

// lowerByID resolves a protocol file id.
func (s *Server) lowerByID(id uint64) (fsys.File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.byID[id]
	if !ok {
		return nil, fmt.Errorf("dfs: unknown file id %d", id)
	}
	return f, nil
}

// ---- remote path ----

// forwardingCache is the fs_cache object the lower layer invokes to
// perform coherency actions against data one remote client caches of one
// file. Each operation becomes a protocol callback.
type forwardingCache struct {
	client *srvClient
	fileID uint64

	// unreachable latches once a callback fails at the transport level:
	// the client cannot be revoked any more, so the coherency layer must
	// drop it as a holder instead of waiting on it again.
	unreachable atomic.Bool
}

var (
	_ fsys.FsCacheObject  = (*forwardingCache)(nil)
	_ vm.UnreachableCache = (*forwardingCache)(nil)
)

// Unreachable implements vm.UnreachableCache.
func (c *forwardingCache) Unreachable() bool {
	return c.unreachable.Load() || c.client.peer.isClosed()
}

// markUnreachable latches the flag and tears the client connection down in
// the background. The teardown must be asynchronous: callbacks run while
// the coherency layer holds the block busy, and releasing the client's
// sessions reacquires the same flag.
func (c *forwardingCache) markUnreachable() {
	if !c.unreachable.Swap(true) {
		go c.client.peer.Close()
	}
}

// rangeCallback issues a callback carrying (fileID, offset, size) and
// decodes returned dirty extents.
func (c *forwardingCache) rangeCallback(op Op, offset, size vm.Offset) []vm.Data {
	c.client.srv.Callbacks.Inc()
	var e encoder
	e.u64(c.fileID)
	e.i64(offset)
	e.i64(size)
	body, err := c.client.peer.call(op, e.b)
	if err != nil {
		if errors.Is(err, fsys.ErrUnavailable) {
			c.markUnreachable()
		}
		return nil // client gone: nothing to reclaim
	}
	d := decoder{b: body}
	var out []vm.Data
	for i, n := uint32(0), d.u32(); i < n && d.err == nil; i++ {
		off := d.i64()
		// The extent aliases the frame body, which nothing else holds; the
		// coherency layer copies it block by block (absorb).
		out = append(out, vm.Data{Offset: off, Bytes: d.bytes()})
	}
	if d.err != nil {
		// A reply that does not decode says nothing about what the client
		// holds; reading it as "nothing dirty" would drop a writer silently.
		c.markUnreachable()
		return nil
	}
	return out
}

// FlushBack implements vm.CacheObject.
func (c *forwardingCache) FlushBack(offset, size vm.Offset) []vm.Data {
	return c.rangeCallback(OpCbFlushBack, offset, size)
}

// DenyWrites implements vm.CacheObject.
func (c *forwardingCache) DenyWrites(offset, size vm.Offset) []vm.Data {
	return c.rangeCallback(OpCbDenyWrites, offset, size)
}

// WriteBack implements vm.CacheObject.
func (c *forwardingCache) WriteBack(offset, size vm.Offset) []vm.Data {
	return c.rangeCallback(OpCbDenyWrites, offset, size)
}

// DeleteRange implements vm.CacheObject.
func (c *forwardingCache) DeleteRange(offset, size vm.Offset) {
	c.rangeCallback(OpCbDeleteRange, offset, size)
}

// ZeroFill implements vm.CacheObject; remote caches simply drop the range
// and refetch.
func (c *forwardingCache) ZeroFill(offset, size vm.Offset) {
	c.rangeCallback(OpCbDeleteRange, offset, size)
}

// Populate implements vm.CacheObject; remote caches drop and refetch.
func (c *forwardingCache) Populate(offset, size vm.Offset, access vm.Rights, data []byte) {
	c.rangeCallback(OpCbDeleteRange, offset, size)
}

// DestroyCache implements vm.CacheObject.
func (c *forwardingCache) DestroyCache() {
	c.rangeCallback(OpCbDeleteRange, 0, 1<<62)
}

// FlushAttributes implements fsys.FsCacheObject and answers at the home
// node: nothing is write-behind on this wire. A remote client's attribute
// cache is only ever filled from a reply and invalidated (set_attr and
// set_len are write-through), so it has no modified attributes to return.
func (c *forwardingCache) FlushAttributes() (fsys.Attributes, bool) {
	return fsys.Attributes{}, false
}

// PopulateAttributes implements fsys.FsCacheObject.
func (c *forwardingCache) PopulateAttributes(attrs fsys.Attributes) {
	c.invalAttrs()
}

// InvalidateAttributes implements fsys.FsCacheObject.
func (c *forwardingCache) InvalidateAttributes() { c.invalAttrs() }

func (c *forwardingCache) invalAttrs() {
	c.client.srv.Callbacks.Inc()
	var e encoder
	e.u64(c.fileID)
	if _, err := c.client.peer.call(OpCbInvalAttrs, e.b); err != nil && errors.Is(err, fsys.ErrUnavailable) {
		c.markUnreachable()
	}
}

// encodeAttrs/decodeAttrs carry attributes on the wire as (length, atime,
// mtime) in unix nanoseconds.
func encodeAttrs(e *encoder, a fsys.Attributes) {
	e.i64(a.Length)
	e.i64(a.AccessTime.UnixNano())
	e.i64(a.ModifyTime.UnixNano())
}
