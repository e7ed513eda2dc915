package dfs

import (
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/spring"
	"springfs/internal/stats"
	"springfs/internal/vm"
)

// Client is the remote-machine half of DFS: it speaks the protocol to a
// Server and exposes the exported files as ordinary Spring files. A remote
// file is a memory object whose pager forwards page traffic over the wire;
// the local VMM binds to it like any local file, so remote files are
// cached per node and kept coherent by the server's callbacks.
//
// Without CFS interposed, all file read/write/stat operations also go to
// the remote DFS (Section 6.2: "If it is not running ... all file
// operations go to the remote DFS"). The cfs package layers local caching
// on top.
type Client struct {
	name   string
	domain *spring.Domain
	peer   *peer

	mu    sync.Mutex
	files map[uint64]*RemoteFile // by fileID

	// RemoteCalls counts protocol requests issued; CallbacksServed counts
	// coherency callbacks handled.
	RemoteCalls     stats.Counter
	CallbacksServed stats.Counter
}

// NewClient speaks the protocol over conn. Remote files' pager objects are
// served from domain.
func NewClient(conn net.Conn, domain *spring.Domain, name string) *Client {
	c := &Client{
		name:   name,
		domain: domain,
		files:  make(map[uint64]*RemoteFile),
	}
	c.peer = newPeer(conn, c.handleCallback, nil)
	c.peer.start()
	return c
}

// Close detaches from the server and drops the connection. The detach
// releases this client's coherency holdings at the server synchronously,
// so local writers on the home node proceed immediately instead of paying
// a revocation timeout against a departed client. If the server is already
// unreachable the detach fails fast (or times out) and the connection is
// torn down regardless.
func (c *Client) Close() error {
	if !c.peer.isClosed() {
		_, _ = c.peer.call(OpDetach, nil) // best effort: server may be gone
	}
	return c.peer.Close()
}

// SetCallTimeout bounds each protocol round trip issued by this client
// (default DefaultCallTimeout). It should stay above the server's callback
// timeout: a client op can nest a coherency callback to another client, and
// the outer deadline has to outlive the inner one. Zero disables the bound.
func (c *Client) SetCallTimeout(d time.Duration) { c.peer.setTimeout(d) }

// SetCallByteRate sets the assumed link rate (bytes/second) used to scale a
// call's deadline with its payload: a bulk transfer's deadline becomes
// timeout + bytes/rate, so a multi-megabyte page-out over a slow link is
// not killed by a deadline tuned for small ops (default
// DefaultCallBytesPerSecond; zero disables the extension).
func (c *Client) SetCallByteRate(bps int64) { c.peer.setByteRate(bps) }

// call issues one protocol request.
func (c *Client) call(op Op, payload []byte) ([]byte, error) {
	c.RemoteCalls.Inc()
	return c.peer.call(op, payload)
}

// fileFor returns the canonical RemoteFile for a fileID.
func (c *Client) fileFor(id uint64) *RemoteFile {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.files[id]; ok {
		return f
	}
	f := &RemoteFile{client: c, id: id, table: fsys.NewConnectionTable(c.domain)}
	c.files[id] = f
	return f
}

// Open resolves a remote path to a file.
func (c *Client) Open(path string) (*RemoteFile, error) { return c.open(OpLookup, path) }

// Create creates a remote file.
func (c *Client) Create(path string) (*RemoteFile, error) { return c.open(OpCreate, path) }

// open issues a lookup or a create: both answer with the file's id and
// attributes.
func (c *Client) open(op Op, path string) (*RemoteFile, error) {
	var e encoder
	e.str(path)
	body, err := c.call(op, e.b)
	if err != nil {
		return nil, err
	}
	d := decoder{b: body}
	id := d.u64()
	attrs := decodeAttrs(&d)
	if d.err != nil {
		return nil, d.err
	}
	f := c.fileFor(id)
	f.attrs.Set(attrs)
	return f, nil
}

// Remove removes a remote file.
func (c *Client) Remove(path string) error {
	var e encoder
	e.str(path)
	_, err := c.call(OpRemove, e.b)
	return err
}

// Rename atomically moves a remote name. The operation is not idempotent,
// so a timed-out call is surfaced to the caller rather than retried.
func (c *Client) Rename(oldpath, newpath string) error {
	var e encoder
	e.str(oldpath)
	e.str(newpath)
	_, err := c.call(OpRename, e.b)
	return err
}

// Mkdir creates a remote directory.
func (c *Client) Mkdir(path string) error {
	var e encoder
	e.str(path)
	_, err := c.call(OpMkdir, e.b)
	return err
}

// DirEntry is one remote directory entry.
type DirEntry struct {
	Name  string
	IsDir bool
}

// List lists a remote directory ("" for the export root).
func (c *Client) List(path string) ([]DirEntry, error) {
	var e encoder
	e.str(path)
	body, err := c.call(OpList, e.b)
	if err != nil {
		return nil, err
	}
	d := decoder{b: body}
	n := d.u32()
	out := make([]DirEntry, 0, n)
	for i := uint32(0); i < n; i++ {
		name := d.str()
		isDir := d.u8() == 1
		if d.err != nil {
			return nil, d.err
		}
		out = append(out, DirEntry{Name: name, IsDir: isDir})
	}
	return out, nil
}

// handleCallback serves server-initiated coherency callbacks by applying
// the corresponding cache-object operation to every local cache manager
// bound to the file and returning any modified data.
func (c *Client) handleCallback(op Op, payload []byte) ([]byte, error) {
	c.CallbacksServed.Inc()
	d := decoder{b: payload}
	fileID := d.u64()
	c.mu.Lock()
	f := c.files[fileID]
	c.mu.Unlock()

	switch op {
	case OpCbFlushBack, OpCbDenyWrites, OpCbDeleteRange:
		offset := d.i64()
		size := d.i64()
		if d.err != nil {
			return nil, d.err
		}
		var dirty []vm.Data
		if f != nil {
			// The window goes before any cache is asked: a grant that finds
			// it intact after that would be a grant the home node has just
			// taken back.
			f.clipWindow(offset, size)
			for _, conn := range f.table.ConnectionsFor(fileID) {
				switch op {
				case OpCbFlushBack:
					dirty = append(dirty, conn.Cache.FlushBack(offset, size)...)
				case OpCbDenyWrites:
					dirty = append(dirty, conn.Cache.DenyWrites(offset, size)...)
				case OpCbDeleteRange:
					conn.Cache.DeleteRange(offset, size)
				}
			}
		}
		var e encoder
		e.u32(uint32(len(dirty)))
		for _, ext := range dirty {
			e.i64(ext.Offset)
			e.bytes(ext.Bytes)
		}
		return e.b, nil

	case OpCbInvalAttrs:
		if d.err != nil {
			return nil, d.err
		}
		if f != nil {
			f.attrs.Invalidate()
		}
		return nil, nil

	default:
		return nil, &ErrRemote{Msg: "unexpected callback " + op.String()}
	}
}

// RemoteFile is a file exported by a DFS server, viewed from a remote
// machine. It implements the Spring file interface: it can be mapped (the
// local VMM binds to it and its pager forwards page traffic over the
// protocol) and read/written (operations go to the remote DFS unless CFS
// is interposed).
type RemoteFile struct {
	client *Client
	id     uint64
	table  *fsys.ConnectionTable

	// attrs caches attributes locally. It is only consulted when attribute
	// caching is enabled (by CFS); the server's callbacks keep it
	// coherent either way.
	attrs     fsys.AttrCache
	attrCache bool
	amu       sync.Mutex

	// The write-ahead grant window, the mirror image of read-ahead: the home
	// node records this client as writer of [wnext, wend) although no local
	// cache holds a page there, so a data-less write grant inside it needs
	// no round trip. wnext is also where a grant that continues the
	// sequential streak starts, wahead what the last grant asked the home
	// node for (0 before the first), and wepoch counts everything that
	// takes write grants away — what page.epoch is to a page in the VMM.
	wmu                 sync.Mutex
	wnext, wend, wahead vm.Offset
	wepoch              uint64
}

// grantGrowth is how fast the window grows along a sequential streak: each
// grant asks for this many times the last, up to the largest the server
// accepts (maxPageOutPayload).
const grantGrowth = 4

// planGrant decides how a well-formed data-less write grant over [offset,
// offset+size) is answered: from the window (ask 0), or by asking the home
// node for [offset, offset+ask) — exactly size for a first or random grant,
// grantGrowth times the last ask for one that continues the streak. The
// window is empty until installWindow sees the reply.
func (f *RemoteFile) planGrant(offset, size vm.Offset) (ask vm.Offset, epoch uint64) {
	f.wmu.Lock()
	defer f.wmu.Unlock()
	streak := offset == f.wnext && f.wahead > 0
	hit := offset >= f.wnext && offset+size <= f.wend && !f.client.peer.isClosed()
	f.wnext = offset + size
	if hit {
		return 0, 0
	}
	ask = size
	if streak {
		ask = max(size, min(grantGrowth*f.wahead, maxPageOutPayload))
	}
	f.wend, f.wahead = f.wnext, ask
	return ask, f.wepoch
}

// installWindow records the part of a granted range beyond what was needed,
// unless a callback or page-out took grants away, or another grant moved the
// streak, since planGrant sampled epoch: the reply and a callback the home
// node sent after it are handled on different goroutines, in either order.
func (f *RemoteFile) installWindow(next, end vm.Offset, epoch uint64) {
	f.wmu.Lock()
	defer f.wmu.Unlock()
	if f.wepoch == epoch && f.wnext == next {
		f.wend = end
	}
}

// clipWindow ends the window at offset if [offset, offset+size) reaches into
// it — the home node no longer records this client as writer there — and
// keeps any grant in flight from installing one.
func (f *RemoteFile) clipWindow(offset, size vm.Offset) {
	f.wmu.Lock()
	defer f.wmu.Unlock()
	f.wepoch++
	if offset < f.wend && size > f.wnext-offset {
		f.wend = max(offset, f.wnext)
	}
}

var (
	_ fsys.File             = (*RemoteFile)(nil)
	_ naming.ProxyWrappable = (*RemoteFile)(nil)
)

// ID returns the protocol file id (tests).
func (f *RemoteFile) ID() uint64 { return f.id }

// Client returns the owning client.
func (f *RemoteFile) Client() *Client { return f.client }

// WrapForChannel implements naming.ProxyWrappable.
func (f *RemoteFile) WrapForChannel(ch *spring.Channel) naming.Object {
	return fsys.NewFileProxy(ch, f)
}

// EnableAttrCaching turns the local attribute cache on; CFS calls this
// when it interposes on the file (Section 6.2: CFS caches file attributes
// using the fs_pager and fs_cache objects).
func (f *RemoteFile) EnableAttrCaching() {
	f.amu.Lock()
	defer f.amu.Unlock()
	f.attrCache = true
}

// Bind implements vm.MemoryObject: the local VMM (or any local cache
// manager) binds here; the pager it is connected to forwards page traffic
// to the remote DFS.
func (f *RemoteFile) Bind(caller vm.CacheManager, access vm.Rights, offset, length vm.Offset) (vm.CacheRights, error) {
	rights, _, _ := f.table.Bind(caller, f.id, func() vm.PagerObject {
		return &remotePager{file: f}
	})
	return rights, nil
}

// GetLength implements vm.MemoryObject. With attribute caching enabled
// the length comes from the cached attributes (fetching and caching them
// on miss); otherwise it is a remote call.
func (f *RemoteFile) GetLength() (vm.Offset, error) {
	f.amu.Lock()
	cached := f.attrCache
	f.amu.Unlock()
	if cached {
		attrs, err := f.Stat()
		if err != nil {
			return 0, err
		}
		return attrs.Length, nil
	}
	var e encoder
	e.u64(f.id)
	body, err := f.client.call(OpGetLen, e.b)
	if err != nil {
		return 0, err
	}
	d := decoder{b: body}
	l := d.i64()
	return l, d.err
}

// SetLength implements vm.MemoryObject.
func (f *RemoteFile) SetLength(l vm.Offset) error {
	f.attrs.Invalidate()
	var e encoder
	e.u64(f.id)
	e.i64(l)
	_, err := f.client.call(OpSetLen, e.b)
	return err
}

// ReadAt implements fsys.File; the read goes to the remote DFS, in calls
// of at most what the server answers in one frame (maxPageOutPayload).
func (f *RemoteFile) ReadAt(p []byte, off int64) (int, error) {
	done := 0
	for {
		chunk := p[done:min(len(p), done+maxPageOutPayload)]
		n, err := f.readOnce(chunk, off+int64(done))
		done += n
		if err != nil || n < len(chunk) || done == len(p) {
			return done, err
		}
	}
}

func (f *RemoteFile) readOnce(p []byte, off int64) (int, error) {
	var e encoder
	e.u64(f.id)
	e.i64(off)
	e.u32(uint32(len(p)))
	body, err := f.client.call(OpRead, e.b)
	if err != nil {
		return 0, err
	}
	d := decoder{b: body}
	eof := d.u8() == 1
	data := d.bytes()
	if d.err != nil {
		return 0, d.err
	}
	if len(data) > len(p) {
		// A reply longer than the request is a protocol violation; copying
		// a truncated prefix would silently hand the caller short data
		// counted as a full read.
		return 0, fmt.Errorf("%w: read reply %d bytes for %d requested", ErrProtocol, len(data), len(p))
	}
	n := copy(p, data)
	if eof {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements fsys.File.
func (f *RemoteFile) WriteAt(p []byte, off int64) (int, error) {
	var e encoder
	e.u64(f.id)
	e.i64(off)
	e.bytes(p)
	body, err := f.client.call(OpWrite, e.b)
	if err != nil {
		return 0, err
	}
	// Invalidate only after the server applied the write: a failed call
	// leaves the remote attributes unchanged, and dropping the cache on
	// failure would discard locally buffered dirty attributes for nothing.
	f.attrs.Invalidate()
	d := decoder{b: body}
	n := int(d.u32())
	return n, d.err
}

// Append implements fsys.Appender: the append executes at the home node,
// where the one authoritative end-of-file lives, so concurrent O_APPEND
// writers on any mix of machines get disjoint ranges.
func (f *RemoteFile) Append(p []byte) (int64, int, error) {
	var e encoder
	e.u64(f.id)
	e.bytes(p)
	body, err := f.client.call(OpAppend, e.b)
	if err != nil {
		return 0, 0, err
	}
	f.attrs.Invalidate()
	d := decoder{b: body}
	off := d.i64()
	n := int(d.u32())
	return off, n, d.err
}

// Retain implements fsys.HandleFile: the handle is recorded at the home
// node so an unlink anywhere defers reclamation until this client closes.
func (f *RemoteFile) Retain() {
	var e encoder
	e.u64(f.id)
	_, _ = f.client.call(OpRetain, e.b) // best effort
}

// Release implements fsys.HandleFile.
func (f *RemoteFile) Release() error {
	var e encoder
	e.u64(f.id)
	_, err := f.client.call(OpRelease, e.b)
	return err
}

// Stat implements fsys.File.
func (f *RemoteFile) Stat() (fsys.Attributes, error) {
	f.amu.Lock()
	cached := f.attrCache
	f.amu.Unlock()
	if cached {
		if attrs, ok := f.attrs.Get(); ok {
			return attrs, nil
		}
	}
	var e encoder
	e.u64(f.id)
	body, err := f.client.call(OpGetAttr, e.b)
	if err != nil {
		return fsys.Attributes{}, err
	}
	d := decoder{b: body}
	attrs := decodeAttrs(&d)
	if d.err != nil {
		return fsys.Attributes{}, d.err
	}
	if cached {
		f.attrs.Set(attrs)
	}
	return attrs, nil
}

// Sync implements fsys.File.
func (f *RemoteFile) Sync() error {
	var e encoder
	e.u64(f.id)
	_, err := f.client.call(OpSyncFile, e.b)
	return err
}

// Close releases the server-side session for this file, and with it every
// write grant the window stands for.
func (f *RemoteFile) Close() error {
	defer f.clipWindow(0, math.MaxInt64)
	var e encoder
	e.u64(f.id)
	_, err := f.client.call(OpClose, e.b)
	return err
}

// remotePager forwards pager operations over the protocol. It narrows to
// fs_pager so local cache managers can run the attribute protocol.
type remotePager struct {
	file *RemoteFile
}

var (
	_ fsys.FsPagerObject = (*remotePager)(nil)
	_ vm.HintedPager     = (*remotePager)(nil)
)

// PageIn implements vm.PagerObject.
func (p *remotePager) PageIn(offset, size vm.Offset, access vm.Rights) ([]byte, error) {
	return p.PageInHint(offset, size, size, access)
}

// PageInHint implements vm.HintedPager: the min/max range travels in the
// protocol request, so a single round trip can return a cluster of blocks
// (the paper's Section 8 read-ahead extension, applied across machines
// where it matters most). A data-less write grant goes through the file's
// write-ahead window; a malformed one goes to the server to be refused.
func (p *remotePager) PageInHint(offset, minSize, maxSize vm.Offset, access vm.Rights) ([]byte, error) {
	f, ask := p.file, minSize
	grant := access.NoData() && minSize > 0 && vm.PageAligned(offset, minSize)
	var epoch uint64
	if grant {
		if ask, epoch = f.planGrant(offset, minSize); ask == 0 {
			return nil, nil
		}
		maxSize = ask
	}
	var e encoder
	e.u64(f.id)
	e.i64(offset)
	e.i64(ask)
	e.i64(min(maxSize, maxPageOutPayload)) // a hint; the server refuses a larger one
	e.u8(uint8(access))
	body, err := f.client.call(OpPageIn, e.b)
	if err != nil {
		return nil, err
	}
	if grant {
		f.installWindow(offset+minSize, offset+ask, epoch)
	}
	// The data aliases the frame body, which nothing else holds; the VMM
	// copies it into page buffers on install.
	d := decoder{b: body}
	data := d.bytes()
	return data, d.err
}

// pageOut ships a write-back extent to the home node. The payload is
// variable-length, so the VMM's clustered write-back collapses an N-page
// dirty run into one RPC; extents above the wire bound are split into
// consecutive calls the handler will accept.
func (p *remotePager) pageOut(offset, size vm.Offset, data []byte, retain uint8) error {
	if retain != RetainWrite {
		// The home node drops or downgrades the holding on receipt.
		defer p.file.clipWindow(offset, size)
	}
	data = data[:size]
	for len(data) > 0 {
		n := len(data)
		if n > maxPageOutPayload {
			n = maxPageOutPayload
		}
		var e encoder
		e.u64(p.file.id)
		e.i64(offset)
		e.u8(retain)
		e.bytes(data[:n])
		if _, err := p.file.client.call(OpPageOut, e.b); err != nil {
			return err
		}
		offset += vm.Offset(n)
		data = data[n:]
	}
	return nil
}

// PageOut implements vm.PagerObject.
func (p *remotePager) PageOut(offset, size vm.Offset, data []byte) error {
	return p.pageOut(offset, size, data, RetainNone)
}

// WriteOut implements vm.PagerObject.
func (p *remotePager) WriteOut(offset, size vm.Offset, data []byte) error {
	return p.pageOut(offset, size, data, RetainRead)
}

// Sync implements vm.PagerObject.
func (p *remotePager) Sync(offset, size vm.Offset, data []byte) error {
	return p.pageOut(offset, size, data, RetainWrite)
}

// DoneWithPagerObject implements vm.PagerObject.
func (p *remotePager) DoneWithPagerObject() {
	_ = p.file.Close()
}

// GetAttributes implements fsys.FsPagerObject.
func (p *remotePager) GetAttributes() (fsys.Attributes, error) { return p.file.Stat() }

// SetAttributes implements fsys.FsPagerObject.
func (p *remotePager) SetAttributes(attrs fsys.Attributes) error {
	p.file.attrs.Invalidate()
	var e encoder
	e.u64(p.file.id)
	encodeAttrs(&e, attrs)
	_, err := p.file.client.call(OpSetAttr, e.b)
	return err
}

// String implements fmt.Stringer (diagnostics).
func (f *RemoteFile) String() string {
	return fmt.Sprintf("dfs:%s/file%d", f.client.name, f.id)
}
