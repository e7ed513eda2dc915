// Package netsim provides the network substrate for the distributed file
// system layer: an in-process message network with a configurable latency
// and bandwidth model, exposed through the standard net.Conn / net.Listener
// interfaces so the DFS protocol code runs unchanged over real TCP.
//
// The paper's DFS exports SFS files to other machines "through some
// existing protocol (e.g., AFS)"; this reproduction speaks its own binary
// protocol (package dfs) over connections from this package.
//
// Beyond the latency/bandwidth model, the network injects faults so the
// failure modes of a distributed stack are testable in-process: full
// partitions (Partition), per-message drop/duplicate/extra-delay
// probabilities (SetFaults), and a deterministic drop of the next K
// messages (DropNext). Connections honor net.Conn deadlines, returning
// os.ErrDeadlineExceeded like real sockets do.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"springfs/internal/stats"
)

// Errors returned by the simulated network.
var (
	// ErrAddrInUse is returned when listening on a bound address.
	ErrAddrInUse = errors.New("netsim: address already in use")
	// ErrConnRefused is returned when dialing an address nobody listens
	// on.
	ErrConnRefused = errors.New("netsim: connection refused")
	// ErrClosed is returned on I/O over a closed connection.
	ErrClosed = errors.New("netsim: connection closed")
	// ErrNetworkDown is returned while a partition is injected.
	ErrNetworkDown = errors.New("netsim: network partitioned")
)

// Profile models link characteristics.
type Profile struct {
	// Latency is the one-way propagation delay per message.
	Latency time.Duration
	// BytesPerSecond throttles throughput; 0 means unlimited.
	BytesPerSecond int64
}

// ProfileLAN approximates a early-90s departmental Ethernet: ~1 ms one-way
// latency, ~1 MB/s.
var ProfileLAN = Profile{Latency: time.Millisecond, BytesPerSecond: 1 << 20}

// ProfileFast is a scaled-down LAN (same shape, 100x faster). Its 10 µs
// latency is below the sandbox timer floor (see benchmark/README.md), so
// timing a run on it measures the timer; the benchmark uses 0 or at least
// 2 ms.
var ProfileFast = Profile{Latency: 10 * time.Microsecond, BytesPerSecond: 100 << 20}

// ProfileNone disables the latency model (unit tests).
var ProfileNone = Profile{}

// Faults configure probabilistic per-message fault injection. Messages are
// whole Write calls: the DFS protocol sends each frame in a single Write,
// so a dropped message models a lost request or response frame without
// corrupting the framing of later traffic.
type Faults struct {
	// DropProb is the probability a message is silently discarded.
	DropProb float64
	// DupProb is the probability a message is delivered twice.
	DupProb float64
	// DelayProb is the probability a message suffers ExtraDelay on top of
	// the profile latency.
	DelayProb float64
	// ExtraDelay is the additional one-way delay for delayed messages.
	ExtraDelay time.Duration
	// Seed seeds the fault RNG so runs are reproducible (0 means seed 1).
	Seed int64
}

// Network is a collection of listeners reachable by address.
type Network struct {
	profile Profile

	mu        sync.Mutex
	listeners map[string]*listener
	down      bool
	faults    Faults
	rng       *rand.Rand
	dropNext  int

	// Messages and Bytes count traffic through the network; Drops, Dups,
	// and Delays count injected faults.
	Messages stats.Counter
	Bytes    stats.Counter
	Drops    stats.Counter
	Dups     stats.Counter
	Delays   stats.Counter
}

// New creates a network with the given link profile.
func New(profile Profile) *Network {
	return &Network{profile: profile, listeners: make(map[string]*listener)}
}

// Partition injects (or heals) a full network partition: all sends fail.
func (n *Network) Partition(down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down = down
}

func (n *Network) isDown() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down
}

// SetFaults installs (or, with the zero Faults, clears) probabilistic
// fault injection on every link of the network.
func (n *Network) SetFaults(f Faults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faults = f
	seed := f.Seed
	if seed == 0 {
		seed = 1
	}
	n.rng = rand.New(rand.NewSource(seed))
}

// DropNext arranges for the next k messages (Write calls) to be silently
// dropped, then the link heals. Deterministic, for tests.
func (n *Network) DropNext(k int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dropNext = k
}

// applyFaults decides the fate of one message: dropped, duplicated, and/or
// delayed. It is called once per Write.
func (n *Network) applyFaults() (drop, dup bool, extraDelay time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.dropNext > 0 {
		n.dropNext--
		return true, false, 0
	}
	f := n.faults
	if n.rng == nil || (f.DropProb == 0 && f.DupProb == 0 && f.DelayProb == 0) {
		return false, false, 0
	}
	if f.DropProb > 0 && n.rng.Float64() < f.DropProb {
		return true, false, 0
	}
	if f.DupProb > 0 && n.rng.Float64() < f.DupProb {
		dup = true
	}
	if f.DelayProb > 0 && n.rng.Float64() < f.DelayProb {
		extraDelay = f.ExtraDelay
	}
	return false, dup, extraDelay
}

// addr implements net.Addr.
type addr string

func (a addr) Network() string { return "netsim" }
func (a addr) String() string  { return string(a) }

// message is one in-flight datagram with its arrival time.
type message struct {
	data      []byte
	deliverAt time.Time
}

// halfConn is one direction of a connection. Exactly one Conn reads from
// it (the deadline is that reader's) and one writes into it.
type halfConn struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []message
	closed   bool
	buf      []byte    // partially consumed head message
	deadline time.Time // the reader's deadline; zero means none
}

func newHalf() *halfConn {
	h := &halfConn{}
	h.cond = sync.NewCond(&h.mu)
	return h
}

func (h *halfConn) push(data []byte, deliverAt time.Time) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return ErrClosed
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	h.queue = append(h.queue, message{data: cp, deliverAt: deliverAt})
	h.cond.Broadcast()
	return nil
}

// setDeadline installs the reader's deadline and wakes any blocked reader
// so it re-evaluates (the net.Conn contract: a deadline in the past fails
// pending Reads immediately).
func (h *halfConn) setDeadline(t time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.deadline = t
	h.cond.Broadcast()
}

// waitLocked blocks until the cond is signalled or until the earliest of
// the non-zero times in bounds. Caller holds h.mu.
func (h *halfConn) waitLocked(bounds ...time.Time) {
	var until time.Time
	for _, t := range bounds {
		if !t.IsZero() && (until.IsZero() || t.Before(until)) {
			until = t
		}
	}
	if until.IsZero() {
		h.cond.Wait()
		return
	}
	d := time.Until(until)
	if d <= 0 {
		return
	}
	wake := time.AfterFunc(d, func() {
		h.mu.Lock()
		h.cond.Broadcast()
		h.mu.Unlock()
	})
	h.cond.Wait()
	wake.Stop()
}

// pop delivers received bytes. It models propagation delay by waiting for
// the head message's arrival time, but the wait is interruptible: Close
// and deadline changes wake it immediately, so teardown is never delayed
// by in-flight latency.
func (h *halfConn) pop(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if !h.deadline.IsZero() && !time.Now().Before(h.deadline) {
			return 0, os.ErrDeadlineExceeded
		}
		if len(h.buf) > 0 {
			n := copy(p, h.buf)
			h.buf = h.buf[n:]
			return n, nil
		}
		if len(h.queue) > 0 {
			m := h.queue[0]
			now := time.Now()
			if now.Before(m.deliverAt) {
				if h.closed {
					// The message is still "on the wire" but the reader is
					// gone: do not let shutdown pay the propagation delay.
					return 0, ErrClosed
				}
				h.waitLocked(m.deliverAt, h.deadline)
				continue
			}
			h.queue = h.queue[1:]
			h.buf = m.data
			continue
		}
		if h.closed {
			return 0, ErrClosed
		}
		h.waitLocked(h.deadline)
	}
}

func (h *halfConn) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	h.cond.Broadcast()
}

// Conn is a simulated network connection.
type Conn struct {
	net    *Network
	read   *halfConn
	write  *halfConn
	local  addr
	remote addr

	wmu           sync.Mutex // serialises Write's bandwidth accounting
	writeDeadline time.Time  // guarded by wmu
}

var _ net.Conn = (*Conn)(nil)

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) {
	return c.read.pop(p)
}

// Write implements net.Conn: the sender pays the transmission time (length
// over bandwidth) and the receiver sees the data after the propagation
// delay, unless fault injection drops, duplicates, or delays the message.
func (c *Conn) Write(p []byte) (int, error) {
	if c.net.isDown() {
		return 0, ErrNetworkDown
	}
	c.wmu.Lock()
	if wd := c.writeDeadline; !wd.IsZero() && !time.Now().Before(wd) {
		c.wmu.Unlock()
		return 0, os.ErrDeadlineExceeded
	}
	if bps := c.net.profile.BytesPerSecond; bps > 0 {
		tx := time.Duration(int64(time.Second) * int64(len(p)) / bps)
		if tx > 0 {
			time.Sleep(tx)
		}
	}
	c.wmu.Unlock()
	drop, dup, extraDelay := c.net.applyFaults()
	if drop {
		// The bytes vanish on the wire; the sender cannot tell.
		c.net.Drops.Inc()
		return len(p), nil
	}
	if extraDelay > 0 {
		c.net.Delays.Inc()
	}
	deliverAt := time.Now().Add(c.net.profile.Latency + extraDelay)
	if err := c.write.push(p, deliverAt); err != nil {
		return 0, err
	}
	if dup {
		c.net.Dups.Inc()
		_ = c.write.push(p, deliverAt)
	}
	c.net.Messages.Inc()
	c.net.Bytes.Add(int64(len(p)))
	return len(p), nil
}

// Close implements net.Conn.
func (c *Conn) Close() error {
	c.read.close()
	c.write.close()
	return nil
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error {
	if err := c.SetReadDeadline(t); err != nil {
		return err
	}
	return c.SetWriteDeadline(t)
}

// SetReadDeadline implements net.Conn: Reads at or past t fail with
// os.ErrDeadlineExceeded, including Reads already blocked.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.read.setDeadline(t)
	return nil
}

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.wmu.Lock()
	c.writeDeadline = t
	c.wmu.Unlock()
	return nil
}

// listener implements net.Listener.
type listener struct {
	net     *Network
	address addr

	mu      sync.Mutex
	cond    *sync.Cond
	backlog []*Conn
	closed  bool
}

var _ net.Listener = (*listener)(nil)

// Listen binds a listener to address.
func (n *Network) Listen(address string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[address]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, address)
	}
	l := &listener{net: n, address: addr(address)}
	l.cond = sync.NewCond(&l.mu)
	n.listeners[address] = l
	return l, nil
}

// Dial connects to a listening address, returning the client side.
func (n *Network) Dial(address string) (net.Conn, error) {
	if n.isDown() {
		return nil, ErrNetworkDown
	}
	n.mu.Lock()
	l, ok := n.listeners[address]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, address)
	}
	aToB := newHalf()
	bToA := newHalf()
	clientAddr := addr(fmt.Sprintf("client-%p", aToB))
	client := &Conn{net: n, read: bToA, write: aToB, local: clientAddr, remote: l.address}
	server := &Conn{net: n, read: aToB, write: bToA, local: l.address, remote: clientAddr}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, address)
	}
	l.backlog = append(l.backlog, server)
	l.cond.Broadcast()
	return client, nil
}

// Accept implements net.Listener.
func (l *listener) Accept() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.backlog) == 0 {
		if l.closed {
			return nil, ErrClosed
		}
		l.cond.Wait()
	}
	c := l.backlog[0]
	l.backlog = l.backlog[1:]
	return c, nil
}

// Close implements net.Listener.
func (l *listener) Close() error {
	l.mu.Lock()
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
	l.net.mu.Lock()
	delete(l.net.listeners, string(l.address))
	l.net.mu.Unlock()
	return nil
}

// Addr implements net.Listener.
func (l *listener) Addr() net.Addr { return l.address }
