package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"springfs/internal/blockdev"
	"springfs/internal/fsys"
	"springfs/internal/naming"
)

// benchmarkJSON is the shape of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesCode keeps the contract file and the tables the
// program reports from in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program has %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at tiny sizes with no modelled delay, with
// and without tracing, and checks that each emits exactly the metrics
// BENCHMARK.json names, with usable values.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			res, err := run(options{workload: w.name, seed: 7, seconds: 0.02, trace: traced, tiny: true, outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d findings=%q", w.name, traced, res.Correct, res.Attempted, res.Failed, res.findings)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, def := range want {
				m, ok := res.Metrics[def.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, traced, def.Name)
				case !metricName.MatchString(def.Name):
					t.Errorf("metric name %q is outside the contract's alphabet", def.Name)
				case m.Unit != def.Unit:
					t.Errorf("%s trace=%v: %s has unit %q, want %q", w.name, traced, def.Name, m.Unit, def.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0:
					t.Errorf("%s trace=%v: %s = %v", w.name, traced, def.Name, m.Value)
				case !traced && m.Value == 0:
					// A per-layer metric of a layer the stack lacks reads
					// 0; an end-to-end metric never does.
					t.Errorf("%s: end-to-end metric %s is 0", w.name, def.Name)
				}
			}
		}
	}
}

// TestSameSeedSameCounts: with one client, the same seed and the same number
// of rounds, the counts must repeat exactly. They do on disk-stream and on
// four of layer-sweep's five stacks; sfs-snapfs-clone varies by a device
// read or two per round from run to run (README.md, "Findings"), so it is
// left out.
func TestSameSeedSameCounts(t *testing.T) {
	exact := []string{
		"blockdev.reads_per_op", "blockdev.writes_per_op", "blockdev.blocks_per_io", "blockdev.flushes_per_op",
		"blockdev.written_per_user_byte", "spring.crossings_per_op",
	}
	var runs [2]*result
	for i := range runs {
		res, err := run(options{workload: "disk-stream", seed: 11, seconds: 0.001, trace: true, tiny: true, outDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = res
	}
	for _, m := range exact {
		if a, b := runs[0].Metrics[m].Value, runs[1].Metrics[m].Value; a != b || a == 0 {
			t.Errorf("disk-stream: %s differs between two runs of one seed (or is 0): %v vs %v", m, a, b)
		}
	}

	w := findWorkload("layer-sweep")
	var deltas [2][]counts
	for i := range deltas {
		inst, err := newInstance(w, w.shapes, regimeCPU, w.tiny, 11, true)
		if err != nil {
			t.Fatal(err)
		}
		inst.measure(1, false) // one round
		for _, p := range inst.parts {
			deltas[i] = append(deltas[i], p.delta)
		}
		inst.close()
	}
	for i, shape := range w.shapes {
		if shape == shapeSnapClone {
			continue
		}
		for _, key := range []string{"dev.read_blocks", "dev.write_blocks", "probe.read_ios", "probe.write_ios", "probe.flushes"} {
			if a, b := deltas[0][i][key], deltas[1][i][key]; a != b || a == 0 {
				t.Errorf("layer-sweep on %s: %s differs between two runs of one seed (or is 0): %d vs %d", shape, key, a, b)
			}
		}
	}
}

// TestSelfTimeWithOverlappingChildren checks the span arithmetic: children
// of a fan-out overlap and must be counted once, a device span outside
// every fs span belongs to nobody, and unixapi's self time is what is left
// of the top spans.
func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Level: lvTop, Op: opPread, Start: 0, Dur: 100},
		{Level: lvFS, Op: opPread, Start: 10, Dur: 80}, // [10,90)
		// Three device reads fanned out under the fs call: [20,50) [30,60)
		// overlap, [70,80) is separate. Union inside the fs span: 40+10.
		{Level: lvDev, Op: opDevRead, Start: 20, Dur: 30},
		{Level: lvDev, Op: opDevRead, Start: 30, Dur: 30},
		{Level: lvDev, Op: opDevRead, Start: 70, Dur: 10},
		// A message in flight [55,75): 5 of it under the device union
		// ([55,60)) and 5 more under [70,75), so 10 count as network.
		{Level: lvNet, Op: opNetToServer, Start: 55, Dur: 20},
		// Background device work after the call returned.
		{Level: lvDev, Op: opDevWrite, Start: 200, Dur: 50},
		// A second call that touches neither device nor network.
		{Level: lvTop, Op: opFstat, Start: 300, Dur: 10},
		{Level: lvFS, Op: opStat, Start: 302, Dur: 6},
	}
	b := analyse(spans)
	want := breakdown{Top: 110, FS: 86, Dev: 50, Net: 10, NoNetFS: 6, NoNetCalls: 1}
	if b != want {
		t.Fatalf("analyse = %+v, want %+v", b, want)
	}
	if got := b.unixapiSelf(); got != 24 {
		t.Errorf("unixapi self = %d, want 24", got)
	}
	if got := b.interior(); got != 26 {
		t.Errorf("interior = %d, want 26", got)
	}
}

// plainDevice hides everything but blockdev.Device.
type plainDevice struct{ blockdev.Device }

// TestDevProbePreservesRunReader: disklayer narrows its device to
// blockdev.RunReader to cluster I/O, so the probe must offer the interface
// exactly when the device does.
func TestDevProbePreservesRunReader(t *testing.T) {
	mem := blockdev.NewMem(16, blockdev.ProfileNone)
	rec := newRecorder()
	var n devCounts
	probed := probeDevice(mem, rec, &n)
	run, ok := probed.(blockdev.RunReader)
	if !ok {
		t.Fatal("probe over a MemDevice lost RunReader")
	}
	buf := make([]byte, 4*blockdev.BlockSize)
	if err := run.WriteRun(2, buf); err != nil {
		t.Fatal(err)
	}
	if err := run.ReadRun(2, buf); err != nil {
		t.Fatal(err)
	}
	if n.WriteIOs.Load() != 1 || n.WriteBlocks.Load() != 4 || n.ReadIOs.Load() != 1 || n.ReadBlocks.Load() != 4 {
		t.Errorf("run counts: %d/%d writes, %d/%d reads", n.WriteIOs.Load(), n.WriteBlocks.Load(), n.ReadIOs.Load(), n.ReadBlocks.Load())
	}
	if got := len(rec.take()); got != 2 {
		t.Errorf("recorded %d device spans, want 2", got)
	}
	if _, ok := probeDevice(plainDevice{mem}, rec, &n).(blockdev.RunReader); ok {
		t.Error("probe over a device without RunReader gained it")
	}
}

// TestFSProbeKeepsOneWrapperPerFile: on sfs-2dom every resolution below
// mints a fresh cross-domain proxy; the probe must still hand out one
// wrapper per underlying file, so fsys.CanonicalKey identity holds above it.
func TestFSProbeKeepsOneWrapperPerFile(t *testing.T) {
	st, err := (&builder{blocks: 2048, inodes: 64, rec: newRecorder()}).build(shapeSFS2)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	created, err := st.top.Create("a", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.top.Create("b", naming.Root); err != nil {
		t.Fatal(err)
	}
	opened, err := st.top.Open("a", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := st.top.Resolve("a", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	other, err := st.top.Open("b", naming.Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, isProbe := created.(*fileProbe); !isProbe {
		t.Fatalf("Create returned %T, want the probe's wrapper", created)
	}
	if fsys.CanonicalKey(created) != fsys.CanonicalKey(opened) || fsys.CanonicalKey(opened) != fsys.CanonicalKey(obj.(fsys.File)) {
		t.Error("Create, Open and Resolve of one file gave different wrappers")
	}
	if fsys.CanonicalKey(opened) == fsys.CanonicalKey(other) {
		t.Error("two files share a wrapper")
	}
}

// TestQuartilesMatchPython pins the A/A table to the driver's method:
// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
