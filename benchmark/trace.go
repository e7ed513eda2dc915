package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"springfs/internal/blockdev"
)

// traceFileSpans caps the spans written per part to trace-<workload>.json;
// a cached-ops run records millions.
const traceFileSpans = 200_000

// window is what one measured instance boils down to: per-part sums, ready
// to be divided.
type window struct {
	parts []partSums
}

type partSums struct {
	shape   stackShape
	clients int
	wall    time.Duration
	rounds  int
	ops     int64 // unixapi calls
	moved   int64 // user bytes read and written
	wrote   int64
	delta   counts
	bd      breakdown
	calls   [numOps]int64 // unixapi calls by kind (traced only)
	tally   *tally
}

func summarise(inst *instance) window {
	var w window
	for _, p := range inst.parts {
		s := partSums{
			shape: p.st.shape, clients: len(p.clients), wall: p.wall, rounds: p.rounds,
			ops: p.tally.attempted, moved: p.tally.readBytes + p.tally.wroteByte, wrote: p.tally.wroteByte,
			delta: p.delta, tally: p.tally,
		}
		if p.spans != nil {
			s.bd = analyse(p.spans)
			for _, sp := range p.spans {
				if sp.Level == lvTop {
					s.calls[sp.Op]++
				}
			}
		}
		w.parts = append(w.parts, s)
	}
	return w
}

// total folds the parts into one.
func (w window) total() partSums {
	t := partSums{delta: counts{}, tally: newTally()}
	for _, p := range w.parts {
		t.clients = p.clients
		t.wall += p.wall
		t.rounds = p.rounds
		t.ops += p.ops
		t.moved += p.moved
		t.wrote += p.wrote
		for k, v := range p.delta {
			t.delta[k] += v
		}
		t.bd.Top += p.bd.Top
		t.bd.FS += p.bd.FS
		t.bd.Dev += p.bd.Dev
		t.bd.Net += p.bd.Net
		t.bd.NoNetFS += p.bd.NoNetFS
		t.bd.NoNetCalls += p.bd.NoNetCalls
		for i := range p.calls {
			t.calls[i] += p.calls[i]
		}
		t.tally.merge(p.tally)
	}
	return t
}

// interiorPerOp is the stack's own time per unixapi call, in microseconds.
func (p partSums) interiorPerOp() float64 { return div(float64(p.bd.interior())/1e3, float64(p.ops)) }

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tail returns the highest percentile of v that has at least ten samples
// beyond it, capped at p99 (and never below the median).
func tail(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	q := math.Min(0.99, 1-10/float64(len(v)))
	return quantile(v, math.Max(q, 0.5))
}

// runTraced is a --trace 1 invocation: it runs the workload's script
// untraced for a quarter of the window, traced for another quarter, then
// once per ladder rung, runs the isolated probes, and derives every
// per-layer metric. Latency samples are per call in all of them, so that
// tails can be read and the traced and untraced windows differ by the
// probes alone.
func runTraced(w *workload, sz sizes, o options, budget time.Duration) (*result, error) {
	sz.smallOps *= sz.batch // the same calls per round, one sample each
	sz.batch = 1
	res := &result{Metrics: make(map[string]metricValue)}
	m := map[string]float64{}

	measure := func(shapes []stackShape, reg regime, traced bool, d time.Duration) (window, *instance, error) {
		inst, err := newInstance(w, shapes, reg, sz, o.seed, traced)
		if err != nil {
			return window{}, nil, err
		}
		inst.measure(d, false)
		return summarise(inst), inst, nil
	}

	refW, ref, err := measure(w.shapes, w.regime, false, budget/4)
	if err != nil {
		return nil, err
	}
	ref.close()
	mainW, main, err := measure(w.shapes, w.regime, true, budget/4)
	if err != nil {
		return nil, err
	}
	main.verdict(res)
	spans := make([][]span, len(main.parts))
	for i, p := range main.parts {
		spans[i] = p.spans
	}
	main.close()

	// The ladder, bottom rung first. steps[i] is the interior time per call
	// the i-th rung adds over the one below it.
	var rungs []partSums
	for _, r := range w.ladder {
		rw, inst, err := measure([]stackShape{r.shape}, r.regime, true, budget/8)
		if err != nil {
			return nil, err
		}
		if inst.parts[0].tally.failed > 0 {
			res.Correct = false
			res.findings = append(res.findings, fmt.Sprintf("ladder rung %s: %v", r.shape, inst.parts[0].tally.firstErr))
		}
		inst.close()
		rungs = append(rungs, rw.parts[0])
	}
	below := 0.0
	var stepsPerOp float64 // sum of the non-negative steps up to the top rung of the ladder
	for i, r := range rungs {
		step := r.interiorPerOp() - below
		below = r.interiorPerOp()
		stepsPerOp += math.Max(step, 0)
		switch name := w.ladder[i].metric; name {
		case "":
		case "dfs.cpu_us_per_rpc":
			m[name] = math.Max(div(step*float64(r.ops), float64(r.delta["dfs.rpcs"])), 0)
		default:
			m[name] = math.Max(step, 0)
		}
	}

	mt, rt := mainW.total(), refW.total()
	var explained float64 // nanoseconds of client time the breakdown accounts for
	for _, p := range mainW.parts {
		top := math.Max(p.interiorPerOp()-below, 0)
		switch {
		case layerMetrics[p.shape].self != "":
			pages := float64(p.moved) / blockSize
			m[layerMetrics[p.shape].self] = div(top*float64(p.ops), pages)
		case w.topStep != "":
			m[w.topStep] = top
		}
		explained += float64(p.bd.unixapiSelf()+p.bd.Dev+p.bd.Net) + (stepsPerOp+top)*1e3*float64(p.ops)
	}
	clientTime := float64(mt.wall) * float64(mt.clients)
	m["trace.closure_share"] = div(explained, clientTime)
	// A traced window that came out faster than the untraced one is noise
	// around an overhead of nothing, and is reported as that.
	m["trace.overhead_share"] = math.Max(div(float64(mt.wall)/float64(mt.rounds), float64(rt.wall)/float64(rt.rounds))-1, 0)
	if c := m["trace.closure_share"]; c < 0.90 {
		res.findings = append(res.findings, fmt.Sprintf(
			"closure %.2f: %.0f%% of the clients' wall time is outside unixapi calls (generating and checking data, recording spans, dropping caches between phases) or idle",
			c, 100*(1-div(float64(mt.bd.Top), clientTime))))
	}

	ops := float64(mt.ops)
	d := mt.delta
	fsyncs := float64(mt.calls[opFsync])
	m["unixapi.self_us_per_op"] = div(float64(mt.bd.unixapiSelf())/1e3, ops)
	m["unixapi.open_p99_us"] = tail(mt.tally.vals["open_p50_us"])
	m["unixapi.pread4k_p99_us"] = tail(mt.tally.vals["pread4k_p50_us"])
	m["unixapi.stat_p99_us"] = tail(mt.tally.vals["stat_p50_us"])
	m["unixapi.create_fsync_p99_us"] = tail(mt.tally.vals["create_fsync_p50_us"])
	m["spring.crossings_per_op"] = div(float64(d["spring.crossings"]), ops)
	m["vm.hit_rate"] = div(float64(d["vmm.hits"]), float64(d["vmm.hits"]+d["vmm.misses"]))
	m["vm.sweeps_per_miss"] = div(float64(d["vmm.lru.sweeps"]), float64(d["vmm.misses"]))
	m["vm.flush_pages_per_extent"] = div(float64(d["vmm.flush.pages"]), float64(d["vmm.flush.extents"]))
	m["vm.flush_extents_per_fsync"] = div(float64(d["vmm.flush.extents"]), fsyncs)
	m["vm.pool_miss_rate"] = div(float64(d["vmm.pool.misses"]), float64(d["vmm.pool.hits"]+d["vmm.pool.misses"]))
	m["coherency.page_ins_per_read"] = div(float64(d["coh.lower_page_ins"]), float64(mt.calls[opPread]+mt.calls[opPreadBulk]))
	m["coherency.write_through_runs_per_fsync"] = div(float64(d["coh.write_through.calls"]), fsyncs)
	m["disklayer.readahead_hit_share"] = div(float64(d["disk.readahead.hits"]), float64(d["disk.readahead.hits"]+d["disk.readahead.wasted"]))
	m["disklayer.alloc_contig_share"] = div(float64(d["disk.alloc.contig"]), float64(d["disk.alloc.blocks"]))
	m["disklayer.txns_per_lifecycle"] = div(float64(d["disk.journal.txns"]), float64(mt.calls[opRename]))
	m["disklayer.txns_per_barrier"] = div(float64(d["disk.journal.txns"]), float64(d["probe.flushes"]))
	m["blockdev.reads_per_op"] = div(float64(d["probe.read_ios"]), ops)
	m["blockdev.writes_per_op"] = div(float64(d["probe.write_ios"]), ops)
	m["blockdev.blocks_per_io"] = div(float64(d["dev.read_blocks"]+d["dev.write_blocks"]), float64(d["probe.read_ios"]+d["probe.write_ios"]))
	m["blockdev.flushes_per_op"] = div(float64(d["probe.flushes"]), ops)
	m["blockdev.busy_share"] = div(float64(mt.bd.Dev), float64(mt.bd.Top))
	m["blockdev.written_per_user_byte"] = div(float64(d["dev.write_blocks"]*blockdev.BlockSize), float64(mt.wrote))
	m["dfs.rpcs_per_op"] = div(float64(d["dfs.rpcs"]), ops)
	m["dfs.bytes_per_rpc"] = div(float64(d["net.bytes"]), float64(d["dfs.rpcs"]))
	m["dfs.retries"] = float64(d["dfs.retry"])
	m["dfs.timeouts"] = float64(d["dfs.timeout"])
	m["cfs.self_us_per_op"] = 0
	if d["dfs.rpcs"] > 0 {
		m["cfs.self_us_per_op"] = div(float64(mt.bd.NoNetFS)/1e3, float64(mt.bd.NoNetCalls))
	}
	m["netsim.msgs_per_op"] = div(float64(d["net.msgs"]), ops)
	m["netsim.bytes_per_user_byte"] = div(float64(d["net.bytes"]), float64(mt.moved))
	m["netsim.wait_share"] = div(float64(mt.bd.Net), float64(mt.bd.Top))
	m["runtime.allocs_per_op"] = div(float64(rt.delta["runtime.allocs"]), float64(rt.ops))
	m["runtime.alloc_bytes_per_op"] = div(float64(rt.delta["runtime.alloc_bytes"]), float64(rt.ops))
	m["runtime.gc_pause_share"] = div(float64(rt.delta["runtime.gc_pause_ns"]), float64(rt.wall))
	for _, p := range mainW.parts {
		switch p.shape {
		case shapeComp:
			m["compfs.stored_per_user_byte"] = div(float64(p.delta["compfs.stored_bytes"]), float64(p.delta["compfs.user_bytes"]))
		case shapeSnapClone:
			m["snapfs.cow_blocks_per_write"] = div(float64(p.delta["snap.cow.blocks"]), float64(p.calls[opPwrite]+p.calls[opPwriteBulk]))
		case shapeMirror:
			// The same script on plain SFS is the ladder's only rung.
			if len(rungs) > 0 {
				m["mirrorfs.lower_writes_per_write"] = div(
					div(float64(p.delta["dev.write_blocks"]), float64(p.ops)),
					div(float64(rungs[0].delta["dev.write_blocks"]), float64(rungs[0].ops)))
			}
		case shapeStripe:
			m["stripefs.fanout_ops_per_call"] = div(float64(p.delta["stripe.fanout.ops"]), float64(p.delta["stripe.fanout.calls"]))
			m["stripefs.fanout_wide_share"] = div(float64(p.delta["stripe.fanout.wide"]), float64(p.delta["stripe.fanout.calls"]))
		}
	}
	if w.rawRung {
		v, err := rawSequential(sz, w.regime)
		if err != nil {
			return nil, err
		}
		m["blockdev.raw_seq_MBps"] = v
	}
	if err := isolated(m); err != nil {
		return nil, err
	}

	for _, def := range perLayer {
		v := m[def.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			res.Correct = false
			res.findings = append(res.findings, fmt.Sprintf("metric %s has no usable value (%v)", def.Name, v))
			v = 0
		}
		res.Metrics[def.Name] = metricValue{Value: v, Unit: def.Unit}
	}
	if err := writeTrace(o, w, mainW, spans); err != nil {
		return nil, err
	}
	return res, nil
}

// rawSequential is the raw rung: the bytes of the streaming file written
// and read back straight through the device's run interface in 64-block
// runs, no file system at all. It returns the MB/s of the two passes
// together.
func rawSequential(sz sizes, reg regime) (float64, error) {
	const run = 64
	blocks := sz.bigBytes / blockdev.BlockSize
	dev := blockdev.NewMem(blocks, reg.disk)
	buf := make([]byte, run*blockdev.BlockSize)
	newGen(1).fill(buf)
	start := time.Now()
	for bn := int64(0); bn+run <= blocks; bn += run {
		if err := dev.WriteRun(bn, buf); err != nil {
			return 0, err
		}
	}
	for bn := int64(0); bn+run <= blocks; bn += run {
		if err := dev.ReadRun(bn, buf); err != nil {
			return 0, err
		}
	}
	return mbps(2*blocks/run*run*blockdev.BlockSize, time.Since(start)), nil
}

// traceFile is the layout of trace-<workload>.json.
type traceFile struct {
	Workload string      `json:"workload"`
	Env      environment `json:"env"`
	Levels   []string    `json:"levels"`
	Ops      []string    `json:"ops"`
	Parts    []tracePart `json:"parts"`
}

type tracePart struct {
	Stack      string `json:"stack"`
	Rounds     int    `json:"rounds"`
	WallNs     int64  `json:"wall_ns"`
	SpansTotal int    `json:"spans_total"`
	// Spans are [level, op, start_ns, duration_ns], indices into Levels
	// and Ops, in recording order; the first traceFileSpans of them.
	Spans [][4]int64 `json:"spans"`
}

func writeTrace(o options, w *workload, mainW window, spans [][]span) error {
	tf := traceFile{Workload: w.name, Env: environmentOf(o), Levels: levelNames[:], Ops: opNames[:]}
	for i, p := range mainW.parts {
		tp := tracePart{Stack: string(p.shape), Rounds: p.rounds, WallNs: int64(p.wall), SpansTotal: len(spans[i])}
		for j, s := range spans[i] {
			if j == traceFileSpans {
				break
			}
			tp.Spans = append(tp.Spans, [4]int64{int64(s.Level), int64(s.Op), s.Start, s.Dur})
		}
		tf.Parts = append(tf.Parts, tp)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.outDir, "trace-"+w.name+".json"), b, 0o644)
}
