package dfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"springfs/internal/fsys"
	"springfs/internal/netsim"
	"springfs/internal/stats"
)

// Failure-handling defaults. Every call carries a deadline so a partitioned
// or hung peer surfaces as an error instead of wedging the caller — the
// paper assumes invocations complete; a distributed stack cannot.
const (
	// DefaultCallTimeout bounds client-issued calls. It must exceed
	// DefaultCallbackTimeout: serving a client op on the server may nest a
	// coherency callback to another client, and the outer call has to
	// outlive the inner one or every revocation races its own caller.
	DefaultCallTimeout = 5 * time.Second
	// DefaultCallbackTimeout bounds server-to-client coherency callbacks.
	DefaultCallbackTimeout = 2 * time.Second
	// DefaultCallBytesPerSecond is the assumed link rate used to scale a
	// call's deadline with its payload: a 4 MiB page-out extent over a slow
	// link legitimately takes longer than a lookup, and a flat deadline
	// either wedges bulk transfers or is uselessly loose for small ops.
	// SetCallByteRate tunes it per connection.
	DefaultCallBytesPerSecond = 64 << 20
	// maxAttempts is the total number of tries for an idempotent op
	// (1 initial + 2 retries).
	maxAttempts = 3
	// retryBackoff is the initial delay before a retry; it doubles each
	// attempt.
	retryBackoff = 25 * time.Millisecond
)

// Package-level failure counters, registered eagerly so `springsh stats`
// shows them even before the first timeout.
var (
	retryCounter   = stats.Default.Counter("dfs.retry")
	timeoutCounter = stats.Default.Counter("dfs.timeout")
)

// peer is one end of a full-duplex DFS protocol connection. Both sides can
// issue requests: clients send file operations, the server sends coherency
// callbacks. Requests are multiplexed by id; responses are matched to
// their waiting caller.
type peer struct {
	conn net.Conn

	// boundary classifies the transport for observability: netsim for
	// latency-modelled in-process links, tcp for real sockets.
	boundary stats.Boundary

	wmu    sync.Mutex // serialises frame writes
	nextID atomic.Uint64

	mu       sync.Mutex
	pending  map[uint64]chan frame
	closed   bool
	closeErr error

	// handler serves incoming requests; it runs on a fresh goroutine per
	// request so a handler that itself issues requests cannot starve the
	// read loop.
	handler func(op Op, payload []byte) ([]byte, error)

	onClose func(err error)

	// timeout bounds each call round trip, in nanoseconds (atomic so
	// SetCallTimeout races cleanly with in-flight calls). Zero disables.
	timeout atomic.Int64

	// byteRate is the assumed link rate in bytes/second used to extend the
	// deadline of bulk-transfer ops in proportion to their payload. Zero
	// disables the extension (the flat timeout alone applies).
	byteRate atomic.Int64
}

// setTimeout installs the per-call deadline.
func (p *peer) setTimeout(d time.Duration) { p.timeout.Store(int64(d)) }

// setByteRate installs the assumed link rate for deadline scaling.
func (p *peer) setByteRate(bps int64) { p.byteRate.Store(bps) }

// isClosed reports whether the connection has torn down.
func (p *peer) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// newPeer wraps conn; start begins serving it. The two are separate so the
// owner can store the peer where its handler and onClose look for it before
// the first frame is read — a client that speaks at once must not find a
// half-built server side. onClose (optional) runs once when the connection
// tears down.
func newPeer(conn net.Conn, handler func(op Op, payload []byte) ([]byte, error), onClose func(err error)) *peer {
	p := &peer{
		conn:     conn,
		boundary: stats.BoundaryTCP,
		pending:  make(map[uint64]chan frame),
		handler:  handler,
		onClose:  onClose,
	}
	if _, ok := conn.(*netsim.Conn); ok {
		p.boundary = stats.BoundaryNetsim
	}
	p.setTimeout(DefaultCallTimeout)
	p.setByteRate(DefaultCallBytesPerSecond)
	return p
}

func (p *peer) start() { go p.readLoop() }

// frameBufPool recycles writeFrame's assembly buffers. The scratch is
// strictly send-local: net.Conn implementations copy on Write (netsim
// queues a copy; TCP copies into the kernel), so the buffer can be reused
// the moment Write returns. Pooling matters on the DFS payload path —
// every page-out extent and read reply is assembled into one of these.
var frameBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// writeFrame sends one frame as a single Write. One Write is one netsim
// message, so an injected drop loses a whole frame and the stream framing
// of later traffic survives — which is what makes retry meaningful.
func (p *peer) writeFrame(f frame) error {
	bp := frameBufPool.Get().(*[]byte)
	need := 4 + 1 + 1 + 8 + len(f.payload)
	buf := *bp
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	binary.BigEndian.PutUint32(buf, uint32(1+1+8+len(f.payload)))
	buf[4] = f.kind
	buf[5] = uint8(f.op)
	binary.BigEndian.PutUint64(buf[6:], f.id)
	copy(buf[14:], f.payload)
	p.wmu.Lock()
	_, err := p.conn.Write(buf)
	p.wmu.Unlock()
	*bp = buf[:0]
	frameBufPool.Put(bp)
	return err
}

// readFrame reads one frame.
func (p *peer) readFrame() (frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(p.conn, lenBuf[:]); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n < 10 || n > maxFrame {
		return frame{}, fmt.Errorf("%w: frame length %d", ErrProtocol, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(p.conn, body); err != nil {
		return frame{}, err
	}
	return frame{
		kind:    body[0],
		op:      Op(body[1]),
		id:      binary.BigEndian.Uint64(body[2:10]),
		payload: body[10:],
	}, nil
}

func (p *peer) readLoop() {
	for {
		f, err := p.readFrame()
		if err != nil {
			p.shutdown(err)
			return
		}
		switch f.kind {
		case kindResponse:
			p.mu.Lock()
			ch := p.pending[f.id]
			delete(p.pending, f.id)
			p.mu.Unlock()
			if ch != nil {
				ch <- f
			}
		case kindRequest:
			go p.serve(f)
		default:
			p.shutdown(fmt.Errorf("%w: frame kind %d", ErrProtocol, f.kind))
			return
		}
	}
}

// serve runs the handler for one incoming request and sends the response.
// Response payload: u8 status (0 ok / 1 error), then body or error string.
func (p *peer) serve(f frame) {
	body, err := p.handler(f.op, f.payload)
	var e encoder
	if err != nil {
		e.u8(1)
		e.str(err.Error())
	} else {
		e.u8(0)
		e.b = append(e.b, body...)
	}
	_ = p.writeFrame(frame{kind: kindResponse, op: f.op, id: f.id, payload: e.b})
}

// call issues a request and waits for the matching response, bounded by
// the peer's timeout. Timed-out idempotent ops are retried with
// exponential backoff (the response frame may simply have been lost);
// non-idempotent ops fail immediately because the first attempt may have
// been applied. Each round trip records a `dfs.<op>` histogram sample and
// span; wire latency dwarfs the bookkeeping, so this tier is always on.
func (p *peer) call(op Op, payload []byte) ([]byte, error) {
	var start time.Time
	if stats.Enabled() {
		start = time.Now()
	}
	body, err := p.callWithRetry(op, payload)
	if !start.IsZero() {
		d := time.Since(start)
		name := "dfs." + op.String()
		stats.Default.Histogram(name).Record(d)
		stats.Trace.Record(name, p.boundary, start, d, int64(len(payload)+len(body)))
	}
	return body, err
}

// callWithRetry splits the configured deadline across attempts: an
// idempotent op gets maxAttempts slices of it (so a single lost frame is
// detected and retried early), a non-idempotent op gets the whole deadline
// once. Worst case the caller is unblocked within the deadline plus the
// small backoff sleeps — comfortably inside twice the configured value.
func (p *peer) callWithRetry(op Op, payload []byte) ([]byte, error) {
	total := time.Duration(p.timeout.Load())
	if rate := p.byteRate.Load(); total > 0 && rate > 0 {
		if bytes := transferBytes(op, payload); bytes > 0 {
			total += time.Duration(bytes * int64(time.Second) / rate)
		}
	}
	attempts := 1
	if op.Idempotent() {
		attempts = maxAttempts
	}
	per := total
	if total > 0 && attempts > 1 {
		per = total / time.Duration(attempts)
	}
	backoff := retryBackoff
	var err error
	for try := 0; try < attempts; try++ {
		if try > 0 {
			retryCounter.Inc()
			time.Sleep(backoff)
			backoff *= 2
		}
		var body []byte
		body, err = p.doCall(op, payload, per)
		if err == nil {
			return body, nil
		}
		// Only a lost frame is worth retrying. A closed connection stays
		// closed, and a remote error is a definitive answer.
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			return nil, err
		}
	}
	return nil, err
}

// transferBytes estimates how much data an op moves over the wire, from its
// request payload alone. Outbound bulk ops carry the data in the request;
// inbound bulk ops declare the requested size in fixed header fields (see
// the client-side encoders: OpRead is id/off/len, OpPageIn is
// id/offset/minSize/maxSize/access). A reclaiming callback (id/offset/size)
// may bring back as much as it names, up to a frame: one call-out covers a
// holder's whole run. Ops that move no bulk data return 0.
func transferBytes(op Op, payload []byte) int64 {
	switch op {
	case OpWrite, OpAppend, OpPageOut:
		return int64(len(payload))
	case OpCbDenyWrites, OpCbFlushBack:
		if len(payload) >= 24 {
			return int64(min(binary.BigEndian.Uint64(payload[16:24]), maxFrame))
		}
	case OpPageIn:
		if len(payload) >= 32 {
			return int64(binary.BigEndian.Uint64(payload[24:32]))
		}
	case OpRead:
		if len(payload) >= 20 {
			return int64(binary.BigEndian.Uint32(payload[16:20]))
		}
	}
	return 0
}

// errUnavailable tags transport-level failures so layers above (mirrorfs,
// coherency) can distinguish "peer unreachable" from data errors.
func errUnavailable(format string, a ...any) error {
	return fmt.Errorf(format+" (%w)", append(a, fsys.ErrUnavailable)...)
}

func (p *peer) doCall(op Op, payload []byte, timeout time.Duration) ([]byte, error) {
	id := p.nextID.Add(1)
	ch := make(chan frame, 1)
	p.mu.Lock()
	if p.closed {
		err := p.closeErr
		p.mu.Unlock()
		return nil, errUnavailable("dfs: connection closed: %w", err)
	}
	p.pending[id] = ch
	p.mu.Unlock()

	if err := p.writeFrame(frame{kind: kindRequest, op: op, id: id, payload: payload}); err != nil {
		p.mu.Lock()
		delete(p.pending, id)
		p.mu.Unlock()
		return nil, errUnavailable("dfs: send %s: %w", op, err)
	}

	var timer *time.Timer
	var expired <-chan time.Time
	if timeout > 0 {
		timer = time.NewTimer(timeout)
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case f, ok := <-ch:
		if !ok {
			p.mu.Lock()
			err := p.closeErr
			p.mu.Unlock()
			return nil, errUnavailable("dfs: connection closed: %w", err)
		}
		d := decoder{b: f.payload}
		if status := d.u8(); status != 0 {
			msg := d.str()
			if d.err != nil {
				return nil, d.err
			}
			return nil, &ErrRemote{Msg: msg}
		}
		return d.b, nil
	case <-expired:
		// Abandon the call: a late response finds no pending entry and is
		// dropped by the read loop.
		p.mu.Lock()
		delete(p.pending, id)
		p.mu.Unlock()
		timeoutCounter.Inc()
		return nil, errUnavailable("dfs: %s: %w", op, os.ErrDeadlineExceeded)
	}
}

// shutdown tears the peer down, failing all pending calls.
func (p *peer) shutdown(err error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.closeErr = err
	pending := p.pending
	p.pending = make(map[uint64]chan frame)
	onClose := p.onClose
	p.mu.Unlock()
	for _, ch := range pending {
		close(ch)
	}
	p.conn.Close()
	if onClose != nil {
		onClose(err)
	}
}

// Close closes the connection.
func (p *peer) Close() error {
	p.shutdown(io.EOF)
	return nil
}
