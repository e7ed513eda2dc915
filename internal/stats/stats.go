// Package stats provides lightweight counters and histograms used across the
// springfs substrates. The bench harness and the tests use these counters to
// verify structural claims from the paper (for example, that a cached read
// performs no calls to the lower file system layer, the third result of
// Table 2).
//
// All counters are safe for concurrent use.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event counter.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.n.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Reset sets the counter back to zero.
func (c *Counter) Reset() { c.n.Store(0) }

// Registry is a named collection of counters and latency histograms. The
// zero value is ready to use.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	histograms map[string]*Histogram
}

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.histograms == nil {
		r.histograms = make(map[string]*Histogram)
	}
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Histograms returns the registered histograms keyed by name (the map is a
// copy; the histogram pointers are live).
func (r *Registry) Histograms() map[string]*Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*Histogram, len(r.histograms))
	for name, h := range r.histograms {
		out[name] = h
	}
	return out
}

// ResetAll resets every counter and histogram in the registry.
func (r *Registry) ResetAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.Reset()
	}
	for _, h := range r.histograms {
		h.Reset()
	}
}

// Snapshot returns the current value of every counter, keyed by name.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	return out
}

// String renders the registry contents sorted by name, one entry per line.
func (r *Registry) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%-40s %d\n", name, r.counters[name].Value())
	}
	var hnames []string
	for name, h := range r.histograms {
		if h.Count() == 0 {
			continue
		}
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		s := r.histograms[name].Stats()
		fmt.Fprintf(&b, "%-40s n=%-8d mean=%-10v p50<%-10v p95<%-10v p99<%v\n",
			name, s.Count, s.Mean, s.P50, s.P95, s.P99)
	}
	return b.String()
}

// Snapshot is a point-in-time export of a registry: every counter value
// and a summary of every non-empty histogram. It is the programmatic ops
// surface behind springfs.Node.Snapshot.
type Snapshot struct {
	Counters   map[string]int64
	Histograms map[string]HistogramStats
}

// Export captures a full snapshot of the registry.
func (r *Registry) Export() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Histograms: make(map[string]HistogramStats, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, h := range r.histograms {
		if h.Count() == 0 {
			continue
		}
		s.Histograms[name] = h.Stats()
	}
	return s
}

// Default is the process-wide registry used when no explicit registry is
// wired through.
var Default Registry
