package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Boundary classifies the kind of domain boundary an instrumented
// operation crosses. It is the attribution the paper's evaluation needs:
// the cost of a stack crossing depends on whether the two layers share a
// domain, share a node, or talk over a network.
type Boundary uint8

const (
	// BoundaryDirect is a same-domain call: a plain procedure call into
	// layer logic.
	BoundaryDirect Boundary = iota
	// BoundaryCrossDomain is a hand-off to another domain (a Spring
	// cross-domain invocation).
	BoundaryCrossDomain
	// BoundaryNetsim is a hop over a latency-modelled netsim link.
	BoundaryNetsim
	// BoundaryTCP is a hop over a real TCP connection.
	BoundaryTCP
)

// String implements fmt.Stringer.
func (b Boundary) String() string {
	switch b {
	case BoundaryDirect:
		return "direct"
	case BoundaryCrossDomain:
		return "cross-domain"
	case BoundaryNetsim:
		return "netsim"
	case BoundaryTCP:
		return "tcp"
	default:
		return fmt.Sprintf("Boundary(%d)", uint8(b))
	}
}

// Span is one recorded layer crossing or layer operation. Name follows the
// `layer.op` convention (see docs/OBSERVABILITY.md); nesting is not stored
// but reconstructed from interval containment by RenderTrace, which is
// exact as long as one logical operation is traced at a time.
type Span struct {
	// Seq is the record sequence number (1-based, monotonically
	// increasing; spans are sequenced when they END, so children receive
	// smaller numbers than their parents).
	Seq uint64
	// Name is the `layer.op` span name, e.g. "coh.page_in" or
	// "spring.cross-domain:client->coherency".
	Name string
	// Boundary is the kind of domain boundary the operation crossed.
	Boundary Boundary
	// Bytes is the payload size moved by the operation, when meaningful.
	Bytes int64
	// Start is when the operation began.
	Start time.Time
	// Duration is how long it took.
	Duration time.Duration
}

// End returns the completion time.
func (s Span) End() time.Time { return s.Start.Add(s.Duration) }

// Tracer retains the most recent spans in a fixed-capacity ring buffer.
// Recording is gated by an atomic flag so the disabled fast path costs one
// atomic load; span retention itself takes a mutex (tracing windows are
// explicit and bounded, unlike the always-on histograms).
type Tracer struct {
	enabled atomic.Bool

	mu   sync.Mutex
	ring []Span
	next int    // ring insertion point once the ring is full
	seq  uint64 // total spans ever recorded
}

// DefaultTraceCapacity is the ring size of the default tracer.
const DefaultTraceCapacity = 4096

// Trace is the process-wide tracer, disabled by default.
var Trace = NewTracer(DefaultTraceCapacity)

// NewTracer creates a tracer retaining up to capacity spans.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{ring: make([]Span, 0, capacity)}
}

// Enable turns span recording on.
func (t *Tracer) Enable() { t.enabled.Store(true) }

// Disable turns span recording off.
func (t *Tracer) Disable() { t.enabled.Store(false) }

// Enabled reports whether spans are being recorded.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// Reset discards all retained spans and the sequence counter.
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ring = t.ring[:0]
	t.next = 0
	t.seq = 0
}

// Record retains one span. It is a no-op while the tracer is disabled.
func (t *Tracer) Record(name string, b Boundary, start time.Time, d time.Duration, bytes int64) {
	if !t.enabled.Load() {
		return
	}
	t.mu.Lock()
	t.seq++
	s := Span{Seq: t.seq, Name: name, Boundary: b, Bytes: bytes, Start: start, Duration: d}
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, s)
	} else {
		t.ring[t.next] = s
		t.next = (t.next + 1) % len(t.ring)
	}
	t.mu.Unlock()
}

// Spans returns the retained spans in recording order (oldest first).
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Dropped returns how many spans have been overwritten by ring wraparound.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.seq <= uint64(cap(t.ring)) {
		return 0
	}
	return t.seq - uint64(cap(t.ring))
}

// Capture runs fn with the tracer enabled on an empty ring and returns the
// spans it recorded. It restores the previous enabled state afterwards.
func (t *Tracer) Capture(fn func()) []Span {
	was := t.enabled.Load()
	t.Reset()
	t.Enable()
	fn()
	t.enabled.Store(was)
	return t.Spans()
}

// contains reports whether span a's interval encloses span b's.
func contains(a, b Span) bool {
	return !b.Start.Before(a.Start) && !b.End().After(a.End())
}

// RenderTrace prints spans as an indented flame-style tree: nesting is
// reconstructed from interval containment, each line shows the span's
// total time and its self time (total minus the time spent in enclosed
// spans). The reconstruction assumes the spans belong to one logical
// operation at a time; interleaved concurrent operations render as
// siblings.
func RenderTrace(spans []Span) string {
	if len(spans) == 0 {
		return "(no spans recorded)\n"
	}
	sorted := make([]Span, len(spans))
	copy(sorted, spans)
	sort.SliceStable(sorted, func(i, j int) bool {
		if !sorted[i].Start.Equal(sorted[j].Start) {
			return sorted[i].Start.Before(sorted[j].Start)
		}
		return sorted[i].Duration > sorted[j].Duration // parent before child
	})
	depth := make([]int, len(sorted))
	childDur := make([]time.Duration, len(sorted))
	var stack []int
	for i, s := range sorted {
		for len(stack) > 0 && !contains(sorted[stack[len(stack)-1]], s) {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			depth[i] = depth[p] + 1
			childDur[p] += s.Duration
		}
		stack = append(stack, i)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-52s %-12s %10s %10s %10s\n", "span", "boundary", "total", "self", "bytes")
	for i, s := range sorted {
		self := s.Duration - childDur[i]
		if self < 0 {
			self = 0
		}
		name := strings.Repeat("  ", depth[i]) + s.Name
		bytes := ""
		if s.Bytes > 0 {
			bytes = fmt.Sprintf("%d", s.Bytes)
		}
		fmt.Fprintf(&b, "%-52s %-12s %10s %10s %10s\n",
			name, s.Boundary, fmtSpanDur(s.Duration), fmtSpanDur(self), bytes)
	}
	return b.String()
}

// fmtSpanDur renders a duration compactly for trace output.
func fmtSpanDur(d time.Duration) string {
	switch {
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.2fµs", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}
