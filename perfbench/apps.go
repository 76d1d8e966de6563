package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/obs"
)

// appsScale is the fixed workload scale of the apps workload: the Table 5
// experiment scale.
const appsScale = 1.0

// appsInputs is how many inputs an apps run cycles through, pass by pass:
// the apps draw sizes from their seed, so one input alone makes the run's
// figures depend on which seed it got. Inputs are derived from --seed.
const appsInputs = 4

// appsSetupReps and svcSetupReps are how many times each workload repeats
// its set-up; setup_s is the median. A service set-up takes tens of
// milliseconds, so it repeats more often.
const (
	appsSetupReps = 3
	svcSetupReps  = 7
)

// roundSink counts, from the engine's event stream, the contexts each
// analysis pass looked at. It runs on the analysis goroutine, which the apps
// serialize with the application (AnalysisParallelism 1).
type roundSink struct{ contexts int64 }

func (s *roundSink) Emit(ev obs.Event) {
	if r, ok := ev.(obs.RoundStarted); ok {
		s.contexts += int64(r.Contexts)
	}
}

// checkpointClock times the apps' unit of request-like work: the interval
// from one analysis checkpoint to the next, including the checkpoint's GC
// and analysis. The engine delivers each checkpoint's events when its
// analysis pass ends, so a RoundCompleted event marks the end of one
// interval. appsRunner.pass sets last when an app starts.
type checkpointClock struct {
	last time.Time
	hist latHist
}

func (c *checkpointClock) Emit(ev obs.Event) {
	if _, ok := ev.(obs.RoundCompleted); !ok {
		return
	}
	now := time.Now()
	c.hist.record(now.Sub(c.last))
	c.last = now
}

// appsPass is one measured pass over the five applications.
type appsPass struct {
	runS   float64 // summed Result.Elapsed (Table 5's T)
	wallS  float64 // wall time around the five runs
	peakMB float64 // Result.PeakHeapBytes (Table 5's M) summed over the apps
	allocB float64 // heap bytes allocated during the pass
	// intervals counts the checkpoint intervals, the apps' requests.
	intervals uint64
	appS      []float64
	record    string // selection record: transitions and live variants per site
	snaps     []core.SiteSnapshot
}

// appsRunner runs passes of the five applications over the run's inputs.
type appsRunner struct {
	list  []apps.App
	seeds []int64 // one per input
	want  [][]int // Original-mode checksums per input and app, taken during set-up
	rep   *report
	// clock, when set, times the checkpoint intervals of FullAdap passes.
	clock *checkpointClock
}

// pass runs every app once on input in. mode and rule select the setup; reg
// and sink receive the engine's counters and events (FullAdap only; both may
// be nil).
func (a *appsRunner) pass(in int, mode apps.Mode, rule core.Rule, reg *obs.Registry, sink obs.Sink, tr *tracer) appsPass {
	var p appsPass
	var rec strings.Builder
	pid := tr.begin(spanPass, -1, -1)
	a0 := heapAllocBytes()
	var n0 uint64
	if a.clock != nil {
		n0 = a.clock.hist.n
	}
	start := time.Now()
	for i, app := range a.list {
		o := apps.Obs{Label: app.Name(), Metrics: reg, Sink: sink, Parallelism: 1}
		if mode == apps.ModeFullAdap {
			o.Snapshots = func(snaps []core.SiteSnapshot) {
				for _, s := range snaps {
					fmt.Fprintf(&rec, " %s=%s", s.Name, s.Variant)
				}
				p.snaps = append(p.snaps, snaps...)
			}
			if a.clock != nil {
				o.Sink = obs.Multi(sink, a.clock)
				a.clock.last = time.Now()
			}
		}
		sid := tr.begin(spanApp, pid, int64(i))
		res := apps.RunObs(app, mode, rule, a.seeds[in], o)
		tr.end(sid)
		a.rep.check(res.Sink == a.want[in][i], "apps %s %s seed %d: checksum %d, Original mode gave %d",
			app.Name(), mode, a.seeds[in], res.Sink, a.want[in][i])
		if mode == apps.ModeFullAdap {
			fmt.Fprintf(&rec, " %s.transitions=%d", app.Name(), len(res.Transitions))
		}
		p.runS += res.Elapsed.Seconds()
		p.appS = append(p.appS, res.Elapsed.Seconds())
		p.peakMB += float64(res.PeakHeapBytes) / (1 << 20)
	}
	p.wallS = time.Since(start).Seconds()
	p.allocB = float64(heapAllocBytes() - a0)
	if a.clock != nil {
		p.intervals = a.clock.hist.n - n0
	}
	tr.end(pid)
	p.record = fmt.Sprintf("input=%d%s", in, rec.String())
	return p
}

// forcedGC runs the benchmark's own collection between units of work, so
// each starts from a collected heap, and returns its duration.
func forcedGC(tr *tracer, parent int64) float64 {
	id := tr.begin(spanForcedGC, parent, -1)
	start := time.Now()
	runtime.GC()
	d := time.Since(start).Seconds()
	tr.end(id)
	return d
}

// runApps is the apps workload: set-up takes the Original-mode checksums,
// then FullAdap passes under Rtime repeat until the measured time is up.
// Traced, each round also runs an Original pass and an ImpossibleRule pass,
// and alternates which of its two FullAdap passes carries the tracing.
func runApps(o opts, rep *report) error {
	a := &appsRunner{list: apps.All(appsScale), rep: rep}
	for k := 0; k < appsInputs; k++ {
		a.seeds = append(a.seeds, o.seed*appsInputs+int64(k))
	}
	var setup []float64
	for r := 0; r < appsSetupReps; r++ {
		start := time.Now()
		sums := make([][]int, appsInputs)
		for k, seed := range a.seeds {
			for _, app := range a.list {
				sums[k] = append(sums[k], apps.Run(app, apps.ModeOriginal, core.Rtime(), seed).Sink)
			}
		}
		setup = append(setup, time.Since(start).Seconds())
		if a.want == nil {
			a.want = sums
			continue
		}
		for k := range sums {
			for i := range sums[k] {
				rep.check(sums[k][i] == a.want[k][i], "apps %s seed %d: Original-mode checksum changed between set-ups: %d then %d",
					a.list[i].Name(), a.seeds[k], a.want[k][i], sums[k][i])
			}
		}
	}
	// Warm-up: one untimed FullAdap round over the inputs, so code paths,
	// caches and the heap settle before timing.
	for k := range a.seeds {
		forcedGC(nil, -1)
		a.pass(k, apps.ModeFullAdap, core.Rtime(), obs.NewRegistry(), nil, nil)
	}
	if o.traced {
		return appsTraced(o, a, rep)
	}
	rep.set("setup_s", "s", median(setup), len(setup))

	a.clock = &checkpointClock{}
	reg := obs.NewRegistry()
	var passes []appsPass
	sel := newSelectionLog()
	deadline := time.Now().Add(o.seconds)
	for i := 0; i%appsInputs != 0 || i == 0 || time.Now().Before(deadline); i++ {
		forcedGC(nil, -1)
		p := a.pass(i%appsInputs, apps.ModeFullAdap, core.Rtime(), reg, nil, nil)
		passes = append(passes, p)
		sel.add(i%appsInputs, p.record)
	}
	n := len(passes)
	lat := &a.clock.hist
	rep.set("run_s", "s", median(pluck(passes, func(p appsPass) float64 { return p.runS })), n)
	rep.set("ops_per_s", "1/s", median(pluck(passes, intervalRate)), int(lat.n))
	rep.set("req_p50_us", "us", lat.quantile(0.50)/1e3, int(lat.n))
	rep.set("req_p99_us", "us", lat.quantile(0.99)/1e3, int(lat.n))
	// Each input's peaks repeat exactly, so the mean weighs the inputs alike.
	rep.set("peak_heap_mb", "MB", mean(pluck(passes, func(p appsPass) float64 { return p.peakMB })), n)
	rep.set("alloc_mb", "MB", median(pluck(passes, func(p appsPass) float64 { return p.allocB }))/(1<<20), n)
	sel.note(rep)
	return nil
}

// selectionLog keeps, per input, the selection record of the first FullAdap
// pass and how many passes repeated it exactly.
type selectionLog struct {
	first    map[int]string
	repeated int
	passes   int
}

func newSelectionLog() *selectionLog { return &selectionLog{first: make(map[int]string)} }

func (l *selectionLog) add(in int, record string) {
	l.passes++
	first, ok := l.first[in]
	if !ok {
		l.first[in] = record
		first = record
	}
	if record == first {
		l.repeated++
	}
}

func (l *selectionLog) note(rep *report) {
	for in := 0; in < len(l.first); in++ {
		rep.note("selection apps %s", l.first[in])
	}
	rep.note("selection apps repeated=%d/%d passes", l.repeated, l.passes)
}

// appsTraced runs rounds of four passes on one input each: Original,
// FullAdap under ImpossibleRule, and two FullAdap passes under Rtime, of
// which one records spans and events; which one alternates by round. The
// core and runtime counters cover the traced passes only.
func appsTraced(o opts, a *appsRunner, rep *report) error {
	a.clock = &checkpointClock{}
	ts := newTraceSet()
	tr := ts.tracer()
	reg := obs.NewRegistry()
	rounds := &roundSink{}
	sink := obs.Multi(obs.CountingSink(reg), rounds)
	var orig, imp, traced, untraced []appsPass
	var gcS float64
	var gcCycles uint32
	var gcPauseNs uint64
	sel := newSelectionLog()
	deadline := time.Now().Add(o.seconds)
	for r := 0; r%appsInputs != 0 || r == 0 || time.Now().Before(deadline); r++ {
		in := r % appsInputs
		forcedGC(nil, -1)
		orig = append(orig, a.pass(in, apps.ModeOriginal, core.Rtime(), nil, nil, nil))
		forcedGC(nil, -1)
		imp = append(imp, a.pass(in, apps.ModeFullAdap, core.ImpossibleRule(), obs.NewRegistry(), nil, nil))
		for k := 0; k < 2; k++ {
			if (r+k)%2 == 1 {
				forcedGC(nil, -1)
				untraced = append(untraced, a.pass(in, apps.ModeFullAdap, core.Rtime(), obs.NewRegistry(), nil, nil))
				continue
			}
			before := readCounters(reg, nil)
			gcS += forcedGC(tr, -1)
			p := a.pass(in, apps.ModeFullAdap, core.Rtime(), reg, sink, tr)
			d := readCounters(reg, nil).sub(before)
			gcCycles += d.gcCycles
			gcPauseNs += d.gcPauseNs
			traced = append(traced, p)
			sel.add(in, p.record)
		}
	}
	runS := func(ps []appsPass) float64 { return median(pluck(ps, func(p appsPass) float64 { return p.runS })) }
	rate := func(ps []appsPass) float64 { return median(pluck(ps, intervalRate)) }
	n := len(traced)
	for i, app := range a.list {
		rep.set("apps."+app.Name()+".run_s", "s", median(pluck(untraced, func(p appsPass) float64 { return p.appS[i] })), len(untraced))
	}
	rep.set("apps.original_s", "s", runS(orig), len(orig))
	rep.set("apps.monitor_only_s", "s", runS(imp), len(imp))
	rep.set("core.monitor_tax_s", "s", runS(imp)-runS(orig), len(imp))
	rep.set("core.selection_gain_s", "s", runS(imp)-runS(untraced), len(untraced))

	var snaps []core.SiteSnapshot
	for _, p := range traced {
		snaps = append(snaps, p.snaps...)
	}
	// reg saw only the traced passes, so its totals are the deltas.
	d := readCounters(reg, snaps)
	d.gcCycles, d.gcPauseNs = gcCycles, gcPauseNs
	d.report(rep, float64(n), n, rounds.contexts, gcS)
	rep.set("core.analyze_s", "s", 0, 0) // the apps call AnalyzeNow at their own checkpoints

	rep.set("trace.run_s", "s", runS(traced), n)
	rep.set("trace.overhead_run_s", "s", runS(traced)-runS(untraced), n)
	rep.set("trace.overhead_ops_per_s", "1/s", rate(traced)-rate(untraced), n)
	setSelfTimes(rep, ts, float64(n))
	sel.note(rep)
	return writeSpans(rep, ts)
}

// intervalRate is a pass's checkpoint intervals per second of wall time.
func intervalRate(p appsPass) float64 { return float64(p.intervals) / p.wallS }

func pluck[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// heapAllocBytes reads the cumulative bytes allocated on the heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// setSelfTimes reports each span name's self time per unit of work.
func setSelfTimes(rep *report, ts *traceSet, units float64) {
	self, count := ts.selfTimes()
	for i := 0; i < numSpanNames; i++ {
		rep.set("self."+spanNames[i]+"_s", "s", self[i]/units, count[i])
	}
	rep.set("trace.spans", "count", float64(ts.spanCount()), ts.spanCount())
}

// writeSpans writes the run's spans under .bench_build and notes the path.
func writeSpans(rep *report, ts *traceSet) error {
	path := fmt.Sprintf(".bench_build/spans-%s.tsv", rep.o.workload)
	if err := ts.writeTSV(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	rep.note("spans %d written to %s", ts.spanCount(), path)
	return nil
}
