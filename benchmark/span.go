package main

import (
	"sort"
	"sync"
	"time"
)

// level says which probe recorded a span, from the outside in.
type level uint8

const (
	lvTop level = iota // around a unixapi.Process call
	lvFS               // around a call into the stack's top fsys object
	lvDev              // around a blockdev.Device call
	lvNet              // one netsim message, from Write to the Read that receives it
	numLevels
)

var levelNames = [numLevels]string{"top", "fs", "dev", "net"}

// op names the call a span covers.
type op uint8

const (
	opOpen op = iota
	opClose
	opPread  // 4 KiB
	opPwrite // 4 KiB
	opPreadBulk
	opPwriteBulk
	opFstat
	opStat
	opFsync
	opFtruncate
	opRename
	opUnlink
	opMkdir
	opResolve
	opCreate
	opRetain
	opRelease
	opGetLength
	opDevRead
	opDevWrite
	opDevFlush
	opNetToServer
	opNetToClient
	numOps
)

var opNames = [numOps]string{
	"open", "close", "pread4k", "pwrite4k", "pread", "pwrite", "fstat", "stat", "fsync", "ftruncate",
	"rename", "unlink", "mkdir", "resolve", "create", "retain", "release", "getlength",
	"dev.read", "dev.write", "dev.flush", "net.to_server", "net.to_client",
}

// span is one timed call at one probe. Start is nanoseconds since the
// recorder's epoch.
type span struct {
	Level level
	Op    op
	Start int64
	Dur   int64
}

func (s span) end() int64 { return s.Start + s.Dur }

// recorder keeps spans in memory. One recorder serves all probes of a
// traced run; device and network probes are called from domain and flush
// goroutines, hence the mutex.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) add(lv level, o op, start time.Time) {
	end := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{Level: lv, Op: o, Start: int64(start.Sub(r.epoch)), Dur: int64(end.Sub(start))})
	r.mu.Unlock()
}

// take returns the recorded spans and empties the recorder.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// interval is a half-open time range in recorder nanoseconds.
type interval struct{ lo, hi int64 }

// unionOf merges the given spans into sorted, disjoint intervals. Spans of
// a fan-out overlap; the union counts the covered time once.
func unionOf(spans []span) []interval {
	iv := make([]interval, 0, len(spans))
	for _, s := range spans {
		if s.Dur > 0 {
			iv = append(iv, interval{s.Start, s.end()})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	out := iv[:0]
	for _, x := range iv {
		if n := len(out); n > 0 && x.lo <= out[n-1].hi {
			if x.hi > out[n-1].hi {
				out[n-1].hi = x.hi
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

// covered returns how much of [lo, hi) the disjoint sorted intervals u
// cover.
func covered(u []interval, lo, hi int64) int64 {
	i := sort.Search(len(u), func(i int) bool { return u[i].hi > lo })
	var total int64
	for ; i < len(u) && u[i].lo < hi; i++ {
		a, b := u[i].lo, u[i].hi
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		total += b - a
	}
	return total
}

// breakdown splits the client time of a traced window by where it went.
// All fields are nanoseconds summed over every client's calls.
type breakdown struct {
	Top int64 // inside unixapi.Process calls
	FS  int64 // inside calls into the stack's top fsys object
	Dev int64 // part of FS during which a device call was running
	Net int64 // part of FS during which a message was in flight and no device call ran
	// NoNetFS and NoNetCalls cover the fs calls that overlapped no
	// message at all: on a remote stack these were served by the client
	// machine alone.
	NoNetFS    int64
	NoNetCalls int64
}

// unixapiSelf is the time inside unixapi calls but outside the stack: every
// fs call is made synchronously from exactly one unixapi call, so the sums
// subtract without attributing spans to parents.
func (b breakdown) unixapiSelf() int64 { return b.Top - b.FS }

// interior is the time the stack's own code ran (or waited on itself):
// fs time minus the union of its device and network children.
func (b breakdown) interior() int64 { return b.FS - b.Dev - b.Net }

// analyse computes the breakdown of a set of spans. A span's self time is
// its duration minus the part of its interval that child spans cover; the
// children of an fs span are the device and network spans overlapping it.
func analyse(spans []span) breakdown {
	var byLevel [numLevels][]span
	for _, s := range spans {
		byLevel[s.Level] = append(byLevel[s.Level], s)
	}
	dev := unionOf(byLevel[lvDev])
	net := unionOf(byLevel[lvNet])
	both := unionOf(append(append([]span(nil), byLevel[lvDev]...), byLevel[lvNet]...))
	var b breakdown
	for _, s := range byLevel[lvTop] {
		b.Top += s.Dur
	}
	for _, s := range byLevel[lvFS] {
		b.FS += s.Dur
		d := covered(dev, s.Start, s.end())
		b.Dev += d
		b.Net += covered(both, s.Start, s.end()) - d
		if covered(net, s.Start, s.end()) == 0 {
			b.NoNetFS += s.Dur
			b.NoNetCalls++
		}
	}
	return b
}
