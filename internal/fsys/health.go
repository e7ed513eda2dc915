package fsys

import (
	"errors"
	"sync/atomic"
)

// MaxBackends is how many backends one Health set tracks.
const MaxBackends = 64

// Health is the fan-out membership of a layer stacked on several backends
// (replicas, data servers): a backend whose calls fail at the transport
// level is dropped, so later operations skip it instead of each paying a
// dead link's timeout, until the operator says the fault is repaired — the
// layer cannot tell on its own that a link came back. Checking membership
// is one atomic load; the zero value tracks no backend.
type Health struct {
	n  atomic.Int32
	up atomic.Uint64 // bit i: backend i is in the fan-out
}

// Add registers one more backend, in the fan-out. The caller serialises
// Adds (a layer's StackOn) and stops at MaxBackends.
func (h *Health) Add() { h.set(int(h.n.Add(1))-1, true) }

func (h *Health) set(i int, up bool) {
	for i >= 0 && i < int(h.n.Load()) {
		old := h.up.Load()
		bits := old &^ (1 << i)
		if up {
			bits |= 1 << i
		}
		if h.up.CompareAndSwap(old, bits) {
			return
		}
	}
}

// OK reports whether backend i is in the fan-out.
func (h *Health) OK(i int) bool { return i >= 0 && h.up.Load()>>i&1 == 1 }

// Note drops backend i if err is a transport-level failure (ErrUnavailable:
// a timed-out or dead link). Data-level errors — not found, io.EOF — say
// nothing about the backend.
func (h *Health) Note(i int, err error) {
	if err != nil && errors.Is(err, ErrUnavailable) {
		h.set(i, false)
	}
}

// Revive puts backend i back in the fan-out: the operator's word that the
// fault is repaired.
func (h *Health) Revive(i int) { h.set(i, true) }

// Snapshot returns the fan-out state of every backend.
func (h *Health) Snapshot() []bool {
	out := make([]bool, h.n.Load())
	for i := range out {
		out[i] = h.OK(i)
	}
	return out
}
