// Command perfbench is the end-to-end benchmark of the dimred
// warehouse. One run generates a workload from a seed, drives the
// warehouse through its public API, checks every answer, and prints
// each metric by name with its unit and sample count; the last line of
// standard output is a JSON object with the fields correct, attempted,
// failed and metrics (the end-to-end metrics, or with --trace 1 the
// per-layer metrics).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload adhoc|stream --seed N --seconds S --trace 0|1
//
// LAYERS.md describes the workloads and what each metric measures.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

var workloads = map[string]func(*run) error{
	"adhoc":  runAdhoc,
	"stream": runStream,
}

func main() {
	var opt options
	var seconds float64
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload: adhoc or stream")
	flag.Int64Var(&opt.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&seconds, "seconds", 10, "how long the measured phase runs")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.StringVar(&opt.outDir, "out", "", "directory for the result and span files (empty: none)")
	flag.Parse()
	opt.seconds = time.Duration(seconds * float64(time.Second))
	opt.trace = trace == 1
	opt.scale = 1
	opt.setupReps = 5
	if err := benchmark(opt); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// benchmark runs one workload and reports it on standard output.
func benchmark(opt options) error {
	fn, ok := workloads[opt.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", opt.workload)
	}
	if opt.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	r := newRun(opt)
	if err := fn(r); err != nil {
		return fmt.Errorf("%s: %w", opt.workload, err)
	}
	return r.report(os.Stdout)
}
