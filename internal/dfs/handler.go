package dfs

import (
	"fmt"
	"io"
	"sync"
	"time"

	"springfs/internal/fsys"
	"springfs/internal/naming"
	"springfs/internal/vm"
)

// srvClient is the server-side state of one protocol connection.
type srvClient struct {
	srv  *Server
	peer *peer

	mu sync.Mutex
	// sessions holds one cache-manager connection per file the client pages:
	// the identity under which the server bound to the lower file on the
	// client's behalf, whose forwardingCache carries the lower layer's
	// coherency actions over the wire to that client.
	sessions map[uint64]*fsys.LowerConn
	// retained counts OpRetain handles per file, so a client that dies
	// without releasing them does not pin unlinked files forever.
	retained map[uint64]int
}

// pagerFor returns the session for fileID (creating it if needed) and the
// pager its bind to the lower file produced.
func (c *srvClient) pagerFor(fileID uint64, lower fsys.File) (*fsys.LowerConn, vm.PagerObject, error) {
	c.mu.Lock()
	se, ok := c.sessions[fileID]
	if !ok {
		se = &fsys.LowerConn{Layer: c.srv.FSName() + "/remote", ID: fileID, Domain: c.srv.domain,
			Lower: lower, Access: vm.RightsWrite, Cache: &forwardingCache{client: c, fileID: fileID}}
		c.sessions[fileID] = se
	}
	c.mu.Unlock()
	pager, err := se.Pager()
	return se, pager, err
}

// teardown releases every session after the connection drops.
func (c *srvClient) teardown() {
	c.mu.Lock()
	sessions := c.sessions
	c.sessions = make(map[uint64]*fsys.LowerConn)
	retained := c.retained
	c.retained = make(map[uint64]int)
	c.mu.Unlock()
	for _, se := range sessions {
		se.Done()
	}
	// Drop the departed client's open-handle claims so its unlinked files
	// can be reclaimed by the survivors' last close.
	for fileID, n := range retained {
		if lower, err := c.srv.lowerByID(fileID); err == nil {
			for i := 0; i < n; i++ {
				_ = fsys.Release(lower)
			}
		}
	}
	c.srv.mu.Lock()
	delete(c.srv.clients, c)
	c.srv.mu.Unlock()
}

func decodeAttrs(d *decoder) fsys.Attributes {
	length := d.i64()
	at := d.i64()
	mt := d.i64()
	return fsys.Attributes{
		Length:     length,
		AccessTime: time.Unix(0, at),
		ModifyTime: time.Unix(0, mt),
	}
}

// handle serves one protocol request.
func (c *srvClient) handle(op Op, payload []byte) ([]byte, error) {
	c.srv.RemoteOps.Inc()
	d := decoder{b: payload}
	switch op {
	case OpLookup, OpCreate, OpRemove, OpRename, OpMkdir, OpList:
		return c.handlePath(op, &d)
	case OpDetach:
		// Graceful goodbye: release every session before the client drops
		// the connection. teardown is idempotent, so the connection-close
		// path running it again later is harmless.
		c.teardown()
		return nil, nil
	}
	return c.handleFile(op, &d)
}

// handlePath serves the operations that name their target by path.
func (c *srvClient) handlePath(op Op, d *decoder) ([]byte, error) {
	path := d.str()
	if d.err != nil {
		return nil, d.err
	}
	under, err := c.srv.Under()
	if err != nil {
		return nil, err
	}
	cred := c.srv.cred
	switch op {
	case OpLookup, OpCreate:
		open := under.Open
		if op == OpCreate {
			open = under.Create
		}
		lower, err := open(path, cred)
		if err != nil {
			return nil, err
		}
		attrs, err := lower.Stat()
		if err != nil {
			return nil, err
		}
		var e encoder
		e.u64(c.srv.fileID(lower))
		encodeAttrs(&e, attrs)
		return e.b, nil

	case OpRemove:
		return nil, under.Remove(path, cred)

	case OpRename:
		newpath := d.str()
		if d.err != nil {
			return nil, d.err
		}
		return nil, under.Rename(path, newpath, cred)

	case OpMkdir:
		_, err = under.CreateContext(path, cred)
		return nil, err

	default: // OpList
		ctx, err := naming.ContextAt(under, path, cred)
		if err != nil {
			return nil, err
		}
		bindings, err := ctx.List(cred)
		if err != nil {
			return nil, err
		}
		var e encoder
		e.u32(uint32(len(bindings)))
		for _, b := range bindings {
			e.str(b.Name)
			_, isDir := b.Object.(naming.Context)
			if isDir {
				e.u8(1)
			} else {
				e.u8(0)
			}
		}
		return e.b, nil
	}
}

// handleFile serves the operations that name their target by file id.
func (c *srvClient) handleFile(op Op, d *decoder) ([]byte, error) {
	fileID := d.u64()
	if d.err != nil {
		return nil, d.err
	}
	if op == OpClose {
		c.mu.Lock()
		se := c.sessions[fileID]
		delete(c.sessions, fileID)
		c.mu.Unlock()
		if se != nil {
			se.Done()
		}
		return nil, nil
	}
	lower, err := c.srv.lowerByID(fileID)
	if err != nil {
		return nil, err
	}
	var e encoder
	switch op {
	case OpAppend:
		data := d.bytes()
		if d.err != nil {
			return nil, d.err
		}
		off, n, err := fsys.Append(lower, data)
		if err != nil {
			return nil, err
		}
		e.i64(off)
		e.u32(uint32(n))
		return e.b, nil

	case OpRetain:
		fsys.Retain(lower)
		c.mu.Lock()
		c.retained[fileID]++
		c.mu.Unlock()
		return nil, nil

	case OpRelease:
		c.mu.Lock()
		tracked := c.retained[fileID] > 0
		if tracked {
			c.retained[fileID]--
			if c.retained[fileID] == 0 {
				delete(c.retained, fileID)
			}
		}
		c.mu.Unlock()
		if !tracked {
			return nil, nil // never retained (or already torn down): no claim to drop
		}
		return nil, fsys.Release(lower)

	case OpRead:
		off := d.i64()
		n := d.u32()
		if d.err != nil {
			return nil, d.err
		}
		if off < 0 || n > maxPageOutPayload {
			return nil, fmt.Errorf("%w: read of %d bytes at %d", ErrProtocol, n, off)
		}
		buf := make([]byte, n)
		read, err := lower.ReadAt(buf, off)
		eof := err == io.EOF
		if err != nil && !eof {
			return nil, err
		}
		if eof {
			e.u8(1)
		} else {
			e.u8(0)
		}
		e.bytes(buf[:read])
		return e.b, nil

	case OpWrite:
		off := d.i64()
		data := d.bytes()
		if d.err != nil {
			return nil, d.err
		}
		if off < 0 || off+int64(len(data)) < 0 {
			return nil, fmt.Errorf("%w: write of %d bytes at %d", ErrProtocol, len(data), off)
		}
		n, err := lower.WriteAt(data, off)
		if err != nil {
			return nil, err
		}
		e.u32(uint32(n))
		return e.b, nil

	case OpPageIn:
		off := d.i64()
		size := d.i64()
		maxSize := d.i64()
		access := vm.Rights(d.u8())
		if d.err != nil {
			return nil, d.err
		}
		// The pager below walks the range block by block and allocates what
		// it returns, so guard it like a page-out payload: whole pages at a
		// non-negative offset, no more than one write-back frame carries, in
		// a range whose end does not wrap.
		if !vm.PageAligned(off, size) || size == 0 || size > maxPageOutPayload ||
			maxSize%vm.PageSize != 0 || maxSize > maxPageOutPayload || off+maxPageOutPayload < 0 {
			return nil, fmt.Errorf("%w: page-in over [%d,+%d..%d)", ErrProtocol, off, size, maxSize)
		}
		_, pager, err := c.pagerFor(fileID, lower)
		if err != nil {
			return nil, err
		}
		var data []byte
		if access.NoData() {
			// A write grant without the data (vm.RightsNoData). The reply
			// carries none even if the pager below did not know the bit: the
			// client ignores it.
			_, err = pager.PageIn(off, size, access)
		} else if hp, ok := pager.(vm.HintedPager); ok && maxSize > size {
			// The client conveyed a min/max range (the Section 8
			// read-ahead extension carried over the wire); the home node
			// may return more data than strictly needed.
			data, err = hp.PageInHint(off, size, maxSize, access)
		} else {
			data, err = pager.PageIn(off, size, access)
		}
		if err != nil {
			return nil, err
		}
		e.bytes(data)
		return e.b, nil

	case OpPageOut:
		off := d.i64()
		retain := d.u8()
		data := d.bytes()
		if d.err != nil {
			return nil, d.err
		}
		// Guard the variable-length payload: it must be a whole number of
		// pages and bounded (clients split larger extents), so a malformed
		// or hostile frame cannot push a torn page or an oversized
		// allocation into the pager below.
		if len(data) == 0 || len(data)%vm.PageSize != 0 || len(data) > maxPageOutPayload {
			return nil, fmt.Errorf("%w: page-out payload of %d bytes", ErrProtocol, len(data))
		}
		c.srv.PageOutOps.Inc()
		_, pager, err := c.pagerFor(fileID, lower)
		if err != nil {
			return nil, err
		}
		size := vm.Offset(len(data))
		switch retain {
		case RetainNone:
			return nil, pager.PageOut(off, size, data)
		case RetainRead:
			return nil, pager.WriteOut(off, size, data)
		}
		return nil, pager.Sync(off, size, data)

	case OpGetAttr:
		attrs, err := lower.Stat()
		if err != nil {
			return nil, err
		}
		encodeAttrs(&e, attrs)
		return e.b, nil

	case OpSetAttr:
		attrs := decodeAttrs(d)
		if d.err != nil {
			return nil, d.err
		}
		se, _, err := c.pagerFor(fileID, lower)
		if err != nil {
			return nil, err
		}
		if fp := se.FsPager(); fp != nil {
			return nil, fp.SetAttributes(attrs)
		}
		return nil, lower.SetLength(attrs.Length)

	case OpGetLen:
		l, err := lower.GetLength()
		if err != nil {
			return nil, err
		}
		e.i64(l)
		return e.b, nil

	case OpSetLen:
		l := d.i64()
		if d.err != nil {
			return nil, d.err
		}
		return nil, lower.SetLength(l)

	case OpSyncFile:
		return nil, lower.Sync()

	default:
		return nil, &ErrRemote{Msg: "unknown operation " + op.String()}
	}
}
