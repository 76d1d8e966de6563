// Command perfbench is the repository's benchmark. It drives the
// CollectionSwitch reproduction in-process, through the public functions of
// internal/apps, internal/service, internal/core and internal/collections,
// on one of three workloads:
//
//   - apps: the five Table 5 applications in FullAdap mode under Rtime.
//   - svc-shift: the traffic service's handler under closed-loop workers
//     that walk the write, scan and mixed phases over rotating key
//     generations.
//   - svc-read: the same service over a fixed preloaded state under a
//     point-lookup-heavy mix.
//
// Usage (from the repository root, after building with perfbench/run.sh):
//
//	perfbench --workload apps --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of BENCHMARK.json, with
// --trace 1 the per-layer metrics of a separate traced run. The last line of
// standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The lines before it repeat
// every metric with its unit and sample count, the selection record and any
// output mismatches. See perfbench/README.md for the workloads and which
// end-to-end metric each per-layer metric should move.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

// specPath is the benchmark definition, read from the repository root (the
// working directory the benchmark is run from).
const specPath = "BENCHMARK.json"

// opts are the command-line settings shared by every workload.
type opts struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
}

func main() {
	var o opts
	flag.StringVar(&o.workload, "workload", "", "workload to run: apps, svc-shift or svc-read")
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	secs := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0 prints end-to-end metrics; 1 runs traced and prints per-layer metrics")
	flag.Parse()
	o.seconds = time.Duration(*secs) * time.Second
	o.traced = *trace == 1
	if *secs < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	var run func(opts, *report) error
	switch o.workload {
	case "apps":
		run = runApps
	case "svc-shift":
		run = func(o opts, rep *report) error { return runService(o, shiftSpec(), rep) }
	case "svc-read":
		run = func(o opts, rep *report) error { return runService(o, readSpec(), rep) }
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have apps, svc-shift, svc-read)\n", o.workload)
		os.Exit(2)
	}

	rep := newReport(o)
	if err := run(o, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if o.traced {
		if err := runLadder(rep); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: ladder: %v\n", err)
			os.Exit(1)
		}
	}
	if err := rep.write(os.Stdout, spec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}
