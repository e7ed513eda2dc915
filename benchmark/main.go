// Command benchmark is the repository's measuring stick: five fixed
// workloads driven through unixapi.Process, fourteen end-to-end metrics,
// and, on a traced run, per-layer metrics measured from outside the
// program. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for content, offsets and names")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1: record spans and report the per-layer metrics instead")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "directory for trace-<workload>.json")
	aa := flag.Int("aa", 0, "A/A mode: run the workload this many times, each in its own process, and print the spread of every metric")
	flag.Parse()
	o.trace = trace != 0

	if *aa > 0 {
		if err := runAA(o, *aa); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if env, err := json.Marshal(environmentOf(o)); err == nil {
		fmt.Println("env:", string(env))
	}
	for _, f := range res.findings {
		fmt.Println("finding:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// environment is recorded with every result: what ran, where, from which
// commit.
type environment struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	GoVersion  string  `json:"go"`
	Commit     string  `json:"commit"`
}

func environmentOf(o options) environment {
	env := environment{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: "unknown", // the driver's checkout is not a git repository
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}
