package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// metricSpec is one metric row of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the benchmark needs: which
// metrics each mode must print. Reading it keeps the printed metric set and
// the definition from drifting apart.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark definition: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

// measured is one reported value with the number of samples behind it.
type measured struct {
	value float64
	unit  string
	n     int
}

// report collects one run's metrics, output checks and notes.
type report struct {
	o         opts
	metrics   map[string]measured
	attempted int64
	failed    int64
	// mismatches keeps the first few failed checks for the log.
	mismatches []string
	notes      []string
}

func newReport(o opts) *report {
	return &report{o: o, metrics: make(map[string]measured)}
}

// set records metric name. A metric set twice is a bug in the benchmark.
func (r *report) set(name, unit string, v float64, n int) {
	if _, dup := r.metrics[name]; dup {
		panic("perfbench: metric set twice: " + name)
	}
	r.metrics[name] = measured{value: v, unit: unit, n: n}
}

// check counts one attempted output check; a false ok counts as failed and
// keeps the description for the log.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.mismatches) < 20 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints the human-readable lines and then the JSON result. The
// printed metrics are exactly the spec's end-to-end metrics (untraced) or
// per-layer metrics (traced). A per-layer metric the workload does not
// exercise reads 0 with n=0; a computed metric missing from the spec, or
// one whose unit disagrees with it, is an error.
func (r *report) write(w io.Writer, spec *benchSpec) error {
	want := spec.EndToEnd
	mode := "end_to_end"
	if r.o.traced {
		want = spec.PerLayer
		mode = "per_layer"
	}
	known := make(map[string]bool)
	for _, ms := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		known[ms.Name] = true
	}
	out := result{Metrics: make(map[string]metricValue, len(want))}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%.0f trace=%v mode=%s\n",
		r.o.workload, r.o.seed, r.o.seconds.Seconds(), r.o.traced, mode)
	for _, ms := range want {
		m, ok := r.metrics[ms.Name]
		if !ok {
			if !r.o.traced {
				return fmt.Errorf("end-to-end metric %s was not measured", ms.Name)
			}
			m = measured{unit: ms.Unit}
		}
		if m.unit != ms.Unit {
			return fmt.Errorf("metric %s measured in %s, %s says %s", ms.Name, m.unit, specPath, ms.Unit)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not finite", ms.Name)
		}
		out.Metrics[ms.Name] = metricValue{Value: m.value, Unit: m.unit}
		fmt.Fprintf(w, "metric %-40s %16.6g %-6s n=%d\n", ms.Name, m.value, m.unit, m.n)
	}
	var extra []string
	for name := range r.metrics {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metrics missing from %s: %s", specPath, strings.Join(extra, ", "))
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, m := range r.mismatches {
		fmt.Fprintln(w, "MISMATCH", m)
	}
	errFrac := 0.0
	if r.attempted > 0 {
		errFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "check attempted=%d failed=%d error_frac=%g\n", r.attempted, r.failed, errFrac)
	out.Correct = r.failed == 0 && r.attempted > 0
	out.Attempted = r.attempted
	out.Failed = r.failed
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}
