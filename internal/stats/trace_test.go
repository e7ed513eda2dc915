package stats

import (
	"strings"
	"testing"
	"time"
)

func recordN(tr *Tracer, n int, base time.Time) {
	for i := 0; i < n; i++ {
		tr.Record("op", BoundaryDirect, base.Add(time.Duration(i)*time.Microsecond), time.Microsecond, 0)
	}
}

func TestTracerDisabledByDefault(t *testing.T) {
	tr := NewTracer(8)
	recordN(tr, 3, time.Now())
	if got := tr.Spans(); len(got) != 0 {
		t.Fatalf("disabled tracer recorded %d spans", len(got))
	}
}

// TestTracerRingWraparound fills a capacity-N ring with 2N+3 spans and
// verifies the last N survive, in recording order, with the rest counted as
// dropped.
func TestTracerRingWraparound(t *testing.T) {
	const capacity = 8
	tr := NewTracer(capacity)
	tr.Enable()
	base := time.Now()
	const total = 2*capacity + 3
	recordN(tr, total, base)
	spans := tr.Spans()
	if len(spans) != capacity {
		t.Fatalf("retained %d spans, want %d", len(spans), capacity)
	}
	for i, s := range spans {
		wantSeq := uint64(total - capacity + i + 1)
		if s.Seq != wantSeq {
			t.Errorf("span %d: Seq = %d, want %d", i, s.Seq, wantSeq)
		}
	}
	if got := tr.Dropped(); got != total-capacity {
		t.Fatalf("Dropped = %d, want %d", got, total-capacity)
	}
}

func TestTracerResetAndPartialRing(t *testing.T) {
	tr := NewTracer(8)
	tr.Enable()
	recordN(tr, 3, time.Now())
	if got := tr.Spans(); len(got) != 3 {
		t.Fatalf("retained %d spans, want 3", len(got))
	}
	if got := tr.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0", got)
	}
	tr.Reset()
	if got := tr.Spans(); len(got) != 0 {
		t.Fatalf("Reset retained %d spans", len(got))
	}
	recordN(tr, 1, time.Now())
	if got := tr.Spans(); len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("post-Reset spans = %+v, want one span with Seq 1", got)
	}
}

func TestTracerCapture(t *testing.T) {
	tr := NewTracer(8)
	spans := tr.Capture(func() {
		tr.Record("inner", BoundaryDirect, time.Now(), time.Microsecond, 42)
	})
	if len(spans) != 1 || spans[0].Name != "inner" || spans[0].Bytes != 42 {
		t.Fatalf("Capture = %+v, want one 'inner' span with 42 bytes", spans)
	}
	if tr.Enabled() {
		t.Fatal("Capture left the tracer enabled")
	}
	// Capture inside an already-enabled window restores enabled.
	tr.Enable()
	tr.Capture(func() {})
	if !tr.Enabled() {
		t.Fatal("Capture did not restore the enabled state")
	}
}

// TestRenderTraceNesting verifies interval containment becomes indentation
// and self-time subtracts enclosed spans.
func TestRenderTraceNesting(t *testing.T) {
	base := time.Now()
	spans := []Span{
		{Name: "inner", Boundary: BoundaryDirect, Start: base.Add(2 * time.Millisecond), Duration: 4 * time.Millisecond},
		{Name: "outer", Boundary: BoundaryCrossDomain, Start: base, Duration: 10 * time.Millisecond},
		{Name: "sibling", Boundary: BoundaryNetsim, Start: base.Add(20 * time.Millisecond), Duration: time.Millisecond},
	}
	out := RenderTrace(spans)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header + 3 spans
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "outer") {
		t.Errorf("line 1 = %q, want outer first (starts earliest)", lines[1])
	}
	if !strings.HasPrefix(lines[2], "  inner") {
		t.Errorf("line 2 = %q, want indented inner", lines[2])
	}
	if !strings.HasPrefix(lines[3], "sibling") {
		t.Errorf("line 3 = %q, want unindented sibling", lines[3])
	}
	// outer self = 10ms - 4ms = 6ms.
	if !strings.Contains(lines[1], "6.00ms") {
		t.Errorf("outer line %q missing 6.00ms self time", lines[1])
	}
}

func TestOpHotGating(t *testing.T) {
	hot := NewHotOp("test.hot_gating", BoundaryDirect)
	cold := NewOp("test.cold_gating", BoundaryDirect)
	defer Default.ResetAll()
	defer Trace.Reset()

	// Tracer off: hot op records nothing, cold op records the histogram.
	hot.End(hot.Start(), 0)
	cold.End(cold.Start(), 0)
	if n := Default.Histogram("test.hot_gating").Count(); n != 0 {
		t.Fatalf("hot op recorded %d samples with tracing off", n)
	}
	if n := Default.Histogram("test.cold_gating").Count(); n != 1 {
		t.Fatalf("cold op recorded %d samples, want 1", n)
	}

	// Tracer on: both record histogram and span.
	spans := Trace.Capture(func() {
		hot.End(hot.Start(), 0)
		cold.End(cold.Start(), 0)
	})
	if n := Default.Histogram("test.hot_gating").Count(); n != 1 {
		t.Fatalf("hot op recorded %d samples during a tracing window, want 1", n)
	}
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}

	// Global kill switch beats everything.
	SetEnabled(false)
	defer SetEnabled(true)
	Trace.Enable()
	defer Trace.Disable()
	hot.End(hot.Start(), 0)
	cold.End(cold.Start(), 0)
	if n := Default.Histogram("test.cold_gating").Count(); n != 2 {
		t.Fatalf("disabled instrumentation still recorded (count %d, want 2)", n)
	}
}
