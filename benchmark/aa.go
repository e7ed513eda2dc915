package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runAA runs the workload n times, each in a fresh process with its own
// seed, and prints for every metric the median, the quartiles and their
// distance as a share of the median, beside the metric's bound. A spread
// above the bound means the metric cannot tell a regression of that size
// from noise: it needs a longer window or bigger batches, never a wider
// bound.
func runAA(o options, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		args := []string{
			"-workload", o.workload,
			"-seed", strconv.FormatInt(o.seed+int64(i), 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"-out", o.outDir,
		}
		if o.trace {
			args = append(args, "-trace", "1")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output() // waits for the child to exit
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		res, err := lastResult(out)
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		if !res.Correct || res.Failed != 0 {
			return fmt.Errorf("run %d: correct=%v failed=%d\n%s", i, res.Correct, res.Failed, out)
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	bounds := map[string]float64{}
	for _, m := range endToEnd {
		bounds[m.Name] = m.Bound
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-40s %-6s %14s %14s %14s %8s %6s\n", "metric", "unit", "median", "q1", "q3", "spread", "bound")
	for _, name := range names {
		q1, med, q3 := quartiles(values[name])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		bound, flag := "", ""
		if b, ok := bounds[name]; ok {
			bound = strconv.FormatFloat(b, 'f', 2, 64)
			if spread > b && name != "setup_s" {
				flag = "  <-- spread exceeds bound"
			}
		}
		fmt.Printf("%-40s %-6s %14.6g %14.6g %14.6g %8.4f %6s%s\n", name, units[name], med, q1, q3, spread, bound, flag)
	}
	return nil
}

// lastResult parses the last line of a run's standard output.
func lastResult(out []byte) (*result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	return &res, nil
}

// quartiles returns the three cut points of v as Python's
// statistics.quantiles(v, n=4) computes them (the driver's method).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) < 2 {
		if len(s) == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := len(s) + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}
