// Command perfmodel is the performance-model builder of Section 4.1: it
// benchmarks collection variants under the factorial plan of Table 3
// (sizes 10, 50, 100..1000 × populate/contains/iterate/middle × int ×
// uniform) on this machine, fits least-squares cubic cost models, and writes
// them as JSON for the CollectionSwitch engine to load (the -models flag of
// cmd/experiments, or Engine.SetModels at runtime).
//
// Usage:
//
//	perfmodel -o models.json                  # full Table 3 plan (about 30 s)
//	perfmodel -o models.json -quick           # reduced plan (seconds)
//	perfmodel -abstraction set -quick         # only the set candidates
//	perfmodel -variant list/array -quick      # one variant
//	perfmodel -print                          # also dump the fitted curves
//
// Targets come from the collections catalog, so variants registered through
// collections.Register*Variant are benchmarked by the same driver as the
// builtins, and every cell is timed by perfmodel.MeasureCell, the kernel the
// online tuner uses too.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/collections"
	"repro/internal/obs"
	"repro/internal/perfmodel"
)

// selectTargets resolves the -abstraction / -variant filters against the
// catalog's default benchmark candidates.
func selectTargets(abstraction, variant string) ([]collections.BenchTarget, error) {
	if variant != "" {
		t, ok := collections.BenchTargetFor(collections.VariantID(variant))
		if !ok {
			return nil, fmt.Errorf("variant %q is not in the catalog or has no benchmark adapter", variant)
		}
		return []collections.BenchTarget{t}, nil
	}
	abstractions := map[string][]collections.Abstraction{
		"all":  {collections.ListAbstraction, collections.SetAbstraction, collections.MapAbstraction},
		"list": {collections.ListAbstraction},
		"set":  {collections.SetAbstraction},
		"map":  {collections.MapAbstraction},
	}
	kinds, ok := abstractions[abstraction]
	if !ok {
		return nil, fmt.Errorf("unknown abstraction %q (want list, set, map or all)", abstraction)
	}
	var targets []collections.BenchTarget
	for _, a := range kinds {
		targets = append(targets, collections.BenchTargets(a)...)
	}
	return targets, nil
}

func main() {
	out := flag.String("o", "models.json", "output path for the fitted models")
	quick := flag.Bool("quick", false, "use the reduced plan")
	print := flag.Bool("print", false, "print fitted curves to stdout")
	abstraction := flag.String("abstraction", "all", "benchmark only this abstraction: list, set, map or all")
	variant := flag.String("variant", "", "benchmark only this variant id (e.g. list/array)")
	tracePath := flag.String("trace", "", "write benchmark progress events (JSONL) to this file")
	flag.Parse()

	plan := perfmodel.DefaultPlan()
	if *quick {
		plan = perfmodel.QuickPlan()
	}

	targets, err := selectTargets(*abstraction, *variant)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "benchmarking %d variants x %d sizes x %d ops (plan degree %d)\n",
		len(targets), len(plan.Sizes), len(plan.Ops), plan.Degree)

	// Progress travels on the observability layer: a LogfSink renders each
	// obs.BenchmarkProgress event to stderr, and -trace additionally exports
	// the raw events as JSONL.
	progress := obs.Sink(obs.NewLogfSink(func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
	}))
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "creating trace file: %v\n", err)
			os.Exit(1)
		}
		traceSink := obs.NewJSONLSink(f)
		defer func() {
			if err := traceSink.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "flushing trace: %v\n", err)
			}
			f.Close()
		}()
		progress = obs.Multi(progress, traceSink)
	}

	b := perfmodel.NewBuilder(plan)
	b.Sink = progress
	models, err := b.Build(targets)
	if err != nil {
		fmt.Fprintf(os.Stderr, "building models: %v\n", err)
		os.Exit(1)
	}
	perfmodel.SynthesizeEnergy(models)
	if err := models.SaveFile(*out); err != nil {
		fmt.Fprintf(os.Stderr, "saving models: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %d curves to %s\n", models.Len(), *out)

	if *print {
		for _, v := range models.Variants() {
			for _, op := range perfmodel.Ops() {
				for _, dim := range perfmodel.Dimensions() {
					if desc, ok := models.CurveString(v, op, dim); ok {
						fmt.Printf("%s %s %s: %s\n", v, op, dim, desc)
					}
				}
			}
		}
	}
}
