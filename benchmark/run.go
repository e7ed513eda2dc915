package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// A run sets the workload up from nothing at least setupRepeats times, and
// goes on (up to maxSetupRepeats) until setupTime has been spent: a set-up
// of a few milliseconds needs more than three samples for a steady median.
// setup_s is the median; the last set-up is the one measured.
const (
	setupRepeats    = 3
	maxSetupRepeats = 100
	setupTime       = time.Second
)

// options are one invocation's inputs.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // smoke-test variant: tiny sizes, no modelled delay
	outDir   string // where a traced run writes trace-<workload>.json
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one invocation reports. The last line of standard output
// is its JSON form.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// findings are printed before the result: why a run is not correct,
	// and any closure below 0.90 with the remainder named.
	findings []string
}

// instance is a workload set up and ready to run: one part per stack.
type instance struct {
	w     *workload
	sz    sizes
	parts []*part
}

// newInstance sets up one part per shape (shapes and regime may be a ladder
// rung's instead of the workload's own).
func newInstance(w *workload, shapes []stackShape, reg regime, sz sizes, seed int64, traced bool) (*instance, error) {
	inst := &instance{w: w, sz: sz}
	for i, shape := range shapes {
		p, err := newPart(w, shape, reg, sz, seed+int64(i)*7919, traced)
		if err != nil {
			inst.close()
			return nil, fmt.Errorf("%s on %s: %w", w.name, shape, err)
		}
		inst.parts = append(inst.parts, p)
	}
	return inst, nil
}

// newPart builds one stack, populates it from the seed and opens the
// clients on it.
//
// A stack with a modelled delay is populated before the delay exists: the
// files are written through the same layers on delay-free devices, and the
// measured stack mounts copies of those devices. Writing 16 MiB of new
// file through a 2+2 ms disk takes over 20 s, which no run can afford
// three times; what a set-up costs the program still shows in setup_s as
// the CPU time of mkfs, mount and populate, plus the mount on the slow
// device. A remote stack is populated on its home node for the same
// reason.
func newPart(w *workload, shape stackShape, reg regime, sz sizes, seed int64, traced bool) (*part, error) {
	g := newGen(seed)
	pl := newPlan(g, sz, w.clients)
	b := &builder{regime: reg, blocks: sz.devBlocks, inodes: sz.inodes}
	viaImages := reg != regimeCPU || shape == shapeDFS
	if viaImages {
		home := shape
		if shape == shapeDFS {
			home = shapeSFS1
		}
		pre, err := (&builder{blocks: sz.devBlocks, inodes: sz.inodes}).build(home)
		if err != nil {
			return nil, err
		}
		// One flush worker: blocks are allocated at write-back, and four
		// workers racing give every run a different layout, which moved
		// cold sequential reads by a tenth from run to run.
		for _, v := range pre.vmms {
			v.SetFlushWorkers(1)
		}
		err = pl.populate(pre)
		if err == nil {
			err = pre.settle()
		}
		pre.close()
		if err != nil {
			return nil, err
		}
		b.images = pre.devs
	}
	if traced {
		b.rec = newRecorder()
	}
	st, err := b.build(shape)
	if err != nil {
		return nil, err
	}
	p := &part{st: st, tally: newTally()}
	if !viaImages {
		err = pl.populate(st)
	}
	if err == nil {
		// One process per stack, shared by its clients: they are threads
		// of one program on one machine.
		pr := st.newProc()
		for c := 0; c < w.clients; c++ {
			p.clients = append(p.clients, &client{
				proc: pr, g: g.fork(int64(c)), t: newTally(),
				buf: make([]byte, chunk64k),
			})
		}
		err = p.open(pl)
	}
	if err != nil {
		st.close()
		return nil, err
	}
	return p, nil
}

func (inst *instance) close() {
	for _, p := range inst.parts {
		p.st.close()
	}
}

// measure runs rounds of the script until the budget is used: a new round
// starts only if it is expected to end inside the budget, and at least one
// round always runs. Each part's wall time, counts and samples accumulate
// on the part.
func (inst *instance) measure(budget time.Duration, withSide bool) {
	for _, p := range inst.parts {
		if p.st.rec != nil {
			p.st.rec.take() // set-up is not part of the trace
		}
	}
	runtime.GC()
	start := time.Now()
	for {
		t0 := time.Now()
		for _, p := range inst.parts {
			before := p.st.counts()
			moved0 := p.moved()
			p0 := time.Now()
			inst.w.round(p, inst.sz)
			d := time.Since(p0)
			p.wall += d
			p.rounds++
			p.tally.add("script_MBps", mbps(p.moved()-moved0, d))
			after := p.st.counts().since(before)
			if p.delta == nil {
				p.delta = counts{}
			}
			for k, v := range after {
				p.delta[k] += v
			}
			if withSide {
				inst.w.side(p, inst.sz)
			}
		}
		if time.Since(start)+time.Since(t0) > budget {
			break
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s: %d rounds in %.2fs\n", inst.w.name, inst.parts[0].rounds, time.Since(start).Seconds())
	for _, p := range inst.parts {
		for _, c := range p.clients {
			p.tally.merge(c.t)
			c.t = newTally()
		}
		if p.st.rec != nil {
			p.spans = p.st.rec.take()
		}
	}
}

// moved is the user bytes the part's clients have read and written so far.
func (p *part) moved() int64 {
	var n int64
	for _, c := range p.clients {
		n += c.t.readBytes + c.t.wroteByte
	}
	return n + p.tally.readBytes + p.tally.wroteByte
}

// verdict folds the parts' op accounting and the workload's assertions
// into the result.
func (inst *instance) verdict(res *result) {
	res.Correct = true
	for _, p := range inst.parts {
		res.Attempted += p.tally.attempted
		res.Failed += p.tally.failed
		if p.tally.failed > 0 {
			res.Correct = false
			res.findings = append(res.findings, fmt.Sprintf("%s: %d of %d operations failed (%d with wrong bytes); first: %v",
				p.st.shape, p.tally.failed, p.tally.attempted, p.tally.mismatch, p.tally.firstErr))
		}
		if inst.w.diskReadsMustBeZero && p.delta["dev.read_blocks"] != 0 {
			res.Correct = false
			res.findings = append(res.findings, fmt.Sprintf("%s: the device saw %d block reads in a window that must be served from cache",
				p.st.shape, p.delta["dev.read_blocks"]))
		}
		if err := p.st.check(); err != nil {
			res.Correct = false
			res.findings = append(res.findings, err.Error())
		}
	}
}

// run executes one invocation.
func run(o options) (*result, error) {
	w := findWorkload(o.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive, got %v", o.seconds)
	}
	sz := w.full
	if o.tiny {
		// The smoke test's variant: tiny sizes and no modelled delay
		// anywhere, so all five workloads run in a fraction of a second.
		quick := *w
		quick.regime = regimeCPU
		quick.ladder = append([]rung(nil), w.ladder...)
		for i := range quick.ladder {
			quick.ladder[i].regime = regimeCPU
		}
		w, sz = &quick, w.tiny
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		return runTraced(w, sz, o, budget)
	}

	var inst *instance
	var setups []float64
	var spent time.Duration
	for i := 0; i < setupRepeats || (!o.tiny && spent < setupTime && i < maxSetupRepeats); i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		inst, err = newInstance(w, w.shapes, w.regime, sz, o.seed, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += time.Since(t0)
	}
	defer inst.close()
	inst.measure(budget, true)

	res := &result{Metrics: make(map[string]metricValue)}
	inst.verdict(res)
	for _, m := range endToEnd {
		var v float64
		switch {
		case m.Name == "setup_s":
			v = median(setups)
		case isLayerMetric(m.Name):
			v = inst.reduce("script_MBps", m)
			for _, p := range inst.parts {
				if layerMetrics[p.st.shape].mbps == m.Name {
					v = w.estimate(p.tally.vals["script_MBps"], m)
				}
			}
		default:
			v = inst.reduce(m.Name, m)
		}
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			res.findings = append(res.findings, fmt.Sprintf("metric %s has no usable value (%v)", m.Name, v))
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return res, nil
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func isLayerMetric(name string) bool {
	for _, m := range layerMetrics {
		if m.mbps == name {
			return true
		}
	}
	return false
}

// quietShare is the share of a CPU-bound workload's samples, counted from
// the good end, that estimate looks past.
const quietShare = 0.10

// estimate reduces a metric's samples to the reported value.
//
// Where a modelled delay of milliseconds paces every sample, the samples
// agree to about a percent and the median is reported. On the CPU-bound
// workloads they do not: the sandbox's host slows a varying share of every
// run (A/A medians of cached-ops spread 6-13 % of their median, its rounds
// per 15 s 390-505), while the fast end of each run's distribution repeats
// within a few percent. There the 10th percentile from the good end is
// reported: the value on an uncontended machine. Each sample is already a
// mean over a batch of calls or a whole phase, so this is not the latency of
// a lucky call.
func (w *workload) estimate(samples []float64, m metricDef) float64 {
	quiet := w.regime == regimeCPU
	for _, name := range w.quiet {
		quiet = quiet || name == m.Name
	}
	if !quiet {
		return median(samples)
	}
	if m.Better == "higher" {
		return quantile(samples, 1-quietShare)
	}
	return quantile(samples, quietShare)
}

// reduce estimates the metric on every part that sampled it (under the
// name key) and returns the median of the parts: on layer-sweep the
// middle one of the five stacks.
func (inst *instance) reduce(key string, m metricDef) float64 {
	var parts []float64
	for _, p := range inst.parts {
		if v := p.tally.vals[key]; len(v) > 0 {
			parts = append(parts, inst.w.estimate(v, m))
		}
	}
	return median(parts)
}

// median returns the middle value of v (mean of the middle two for an even
// count), or 0 for no values.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks, or 0 for no values.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
