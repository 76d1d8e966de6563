package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/workload"
)

// Service workload shape. Every worker owns a disjoint key range; the sizes
// follow the committed saturation recipe (few large sets, moderate range
// series, batched adds and scans), scaled down so one epoch is a few tens
// of milliseconds.
const (
	svcWorkers  = 2    // closed-loop clients, one per CPU of the reference host
	phaseEpochs = 4    // epochs per phase
	setKeys     = 8    // set keys per worker (per generation in svc-shift)
	rangeKeys   = 16   // range series per worker (per generation in svc-shift)
	kvKeys      = 4096 // kv keys per worker, fixed for the whole run
	setSpan     = 100_000
	rangeSpan   = 40_000
	scanWidth   = 1000
	setBurst    = 64 // members per batched set add
	rangeBurst  = 16 // members per batched range add
	scanBurst   = 16 // windows per batched range scan
	// svc-read preload: batched adds per set key and per range series.
	preloadSetAdds   = 32
	preloadRangeAdds = 8
)

// Request kinds: the service's six mix operations plus the explicit drops
// of a retired key generation (/set/drop and /range/drop).
const (
	opDrop = int(workload.NumServiceOps)
	numOps = opDrop + 1
)

func opName(op int) string {
	if op == opDrop {
		return "drop"
	}
	return workload.ServiceOp(op).String()
}

// maxTracedCycles bounds the cycles a traced run records spans for, which
// bounds the memory the spans take: a cycle is about 100k spans.
const maxTracedCycles = 3

// svcPhase is a run of epochs under one operation mix.
type svcPhase struct {
	name   string
	mix    workload.ServiceMix
	epochs int
}

// svcSpec describes one service workload.
type svcSpec struct {
	phases []svcPhase
	// epochRequests is the number of mix requests per worker per epoch.
	// Epochs are long enough for the heap to fill and collect on its own
	// inside the timed requests, so the forced GC between epochs does not
	// hide the program's GC cost. The read mix's requests are cheaper, so
	// svc-read sends more of them.
	epochRequests int
	// readOnly preloads a fixed state during set-up; writes then only
	// rewrite existing members and values, so every worker may read every
	// worker's keys. Otherwise each worker retires its set and range keys
	// at the start of every epoch: it drops them and starts a fresh
	// generation.
	readOnly bool
}

func mixOf(name string) workload.ServiceMix {
	m, ok := workload.MixByName(name)
	if !ok {
		panic("perfbench: unknown service mix " + name)
	}
	return m
}

func shiftSpec() svcSpec {
	return svcSpec{
		phases: []svcPhase{
			{"write", mixOf("write"), phaseEpochs},
			{"scan", mixOf("scan"), phaseEpochs},
			{"mixed", mixOf("mixed"), phaseEpochs},
		},
		epochRequests: 2048,
	}
}

func readSpec() svcSpec {
	return svcSpec{
		phases:        []svcPhase{{"read", mixOf("read"), phaseEpochs}},
		epochRequests: 4096,
		readOnly:      true,
	}
}

// engineConfig is the service's selection engine: the paper's finished
// ratio and rule with a small window, so a generation of set keys fills
// one, and a one-window cooldown. Manual: the benchmark runs analysis at
// epoch boundaries.
func engineConfig(reg *obs.Registry) service.Config {
	return service.Config{
		Engine: core.Config{
			Name:                "perfbench",
			WindowSize:          16,
			FinishedRatio:       0.6,
			CooldownWindows:     1,
			Rule:                core.Rtime(),
			AnalysisParallelism: 1,
			Metrics:             reg,
		},
		Manual: true,
		// No cap eviction: instances die only through explicit drops.
		MaxKeysPerShard: -1,
	}
}

// --- the run ----------------------------------------------------------------

// svcRun is one constructed service with its clients.
type svcRun struct {
	svc     *service.Service
	reg     *obs.Registry
	h       http.Handler
	clients []*client
}

// setUp builds the service and its clients and loads the initial state:
// the kv keys for both workloads, and the sets and series of svc-read.
func setUp(spec svcSpec, seed int64) (*svcRun, error) {
	reg := obs.NewRegistry()
	svc, err := service.New(engineConfig(reg))
	if err != nil {
		return nil, err
	}
	r := &svcRun{svc: svc, reg: reg, h: svc.Handler()}
	states := make([]*keyState, svcWorkers)
	for i := range states {
		states[i] = newKeyState(i)
	}
	for i := range states {
		c := newClient(i, seed, r.h, states[i], states)
		c.preload(spec.readOnly)
		r.clients = append(r.clients, c)
	}
	for _, c := range r.clients {
		c.shared = spec.readOnly
	}
	return r, nil
}

func (r *svcRun) shutdown() error {
	return r.svc.Shutdown(context.Background())
}

// cycleStat is one measured cycle of the phase schedule: the service
// workloads' unit of work.
type cycleStat struct {
	requests int64
	timeS    float64 // request time plus AnalyzeNow passes; forced GCs left out
	allocB   float64
	peakMB   float64 // highest live heap after an epoch's forced GC
	traced   bool
	// selection is the cycle's selection record: per phase, the
	// transitions it made and each site's live variant at its end.
	selection string
}

// svcLoop drives the workers epoch by epoch and keeps the run's totals.
type svcLoop struct {
	run       *svcRun
	spec      svcSpec
	cmds      []chan epochCmd
	done      sync.WaitGroup
	coord     *tracer
	epoch     int
	gcS       float64
	analyzeS  float64
	analyses  int
	phaseReqs []int64
	phaseS    []float64
}

// runCycle runs every phase of the schedule once and records the selection
// state at the end of each phase.
func (l *svcLoop) runCycle(cycle string, traced bool, rep *report) cycleStat {
	cs := cycleStat{traced: traced}
	var sel strings.Builder
	for pi, ph := range l.spec.phases {
		t0 := l.run.reg.TransitionsTotal()
		for e := 0; e < ph.epochs; e++ {
			reqs, timeS, allocB, peakMB := l.runEpoch(ph, traced)
			cs.requests += reqs
			cs.timeS += timeS
			cs.allocB += allocB
			cs.peakMB = max(cs.peakMB, peakMB)
			l.phaseReqs[pi] += reqs
			l.phaseS[pi] += timeS
		}
		t1 := l.run.reg.TransitionsTotal()
		var sites strings.Builder
		for _, s := range l.run.svc.Engine().SiteSnapshots() {
			fmt.Fprintf(&sites, " %s=%s", s.Name, s.Variant)
		}
		rep.note("selection cycle=%s phase=%s transitions=%d%s", cycle, ph.name, t1, sites.String())
		fmt.Fprintf(&sel, "%s:+%d%s;", ph.name, t1-t0, sites.String())
	}
	cs.selection = sel.String()
	return cs
}

// runEpoch has every worker send the spec's epochRequests requests (after retiring its
// key generation, when one is due), then with the workers paused forces a
// GC and calls AnalyzeNow. It returns the requests served, their time plus
// the analysis time, the bytes allocated in both, and the live heap after
// the GC.
func (l *svcLoop) runEpoch(ph svcPhase, traced bool) (reqs int64, timeS, allocB, peakMB float64) {
	var tr *tracer
	if traced {
		tr = l.coord
	}
	eid := tr.begin(spanEpoch, -1, int64(l.epoch))
	cmd := epochCmd{
		mix:      ph.mix,
		requests: l.spec.epochRequests,
		rotate:   !l.spec.readOnly && l.epoch > 0,
		traced:   traced,
		parent:   eid,
	}
	before := requestsDone(l.run.clients)
	a0 := heapAllocBytes()
	start := time.Now()
	l.done.Add(len(l.cmds))
	for _, ch := range l.cmds {
		ch <- cmd
	}
	l.done.Wait()
	reqS := time.Since(start).Seconds()
	a1 := heapAllocBytes()

	l.gcS += forcedGC(tr, eid)
	peakMB = liveHeapMB()

	aid := tr.begin(spanAnalyze, eid, -1)
	a2 := heapAllocBytes()
	start = time.Now()
	l.run.svc.Engine().AnalyzeNow()
	analyzeS := time.Since(start).Seconds()
	a3 := heapAllocBytes()
	tr.end(aid)
	tr.end(eid)
	l.analyzeS += analyzeS
	l.analyses++
	l.epoch++
	return requestsDone(l.run.clients) - before, reqS + analyzeS, float64(a1 - a0 + a3 - a2), peakMB
}

// runService runs a service workload: set-up (repeated, median reported),
// then whole cycles of the phase schedule until the measured time is up.
// Each epoch runs a fixed number of requests per worker, then pauses the
// workers, forces a GC and calls AnalyzeNow, so weak-pointer reclamation
// and the finished-ratio gate see the same instances on every run. An
// untimed warm-up cycle comes first. Traced, the first maxTracedCycles odd
// cycles record spans and the other cycles do not; the tracing overhead
// compares the two.
func runService(o opts, spec svcSpec, rep *report) error {
	var setup []float64
	var run *svcRun
	for i := 0; i < svcSetupReps; i++ {
		if run != nil {
			if err := run.shutdown(); err != nil {
				return fmt.Errorf("shut down set-up %d: %w", i, err)
			}
			run.mergeChecks(rep)
		}
		runtime.GC()
		start := time.Now()
		r, err := setUp(spec, o.seed)
		if err != nil {
			return err
		}
		setup = append(setup, time.Since(start).Seconds())
		run = r
	}

	l := &svcLoop{
		run: run, spec: spec, cmds: make([]chan epochCmd, len(run.clients)),
		phaseReqs: make([]int64, len(spec.phases)), phaseS: make([]float64, len(spec.phases)),
	}
	var ts *traceSet
	workerTr := make([]*tracer, len(run.clients))
	if o.traced {
		ts = newTraceSet()
		l.coord = ts.tracer()
		for i := range workerTr {
			workerTr[i] = ts.tracer()
		}
	}
	var stopped sync.WaitGroup
	for i, c := range run.clients {
		l.cmds[i] = make(chan epochCmd)
		stopped.Add(1)
		go func() {
			defer stopped.Done()
			c.work(l.cmds[i], &l.done, workerTr[i])
		}()
	}
	defer func() {
		for _, ch := range l.cmds {
			close(ch)
		}
		stopped.Wait()
	}()

	// Warm-up: one untimed cycle, which also moves selection off the
	// default variants, so every measured cycle starts from the same state.
	l.runCycle("warmup", false, rep)
	for _, c := range run.clients {
		c.hists = [numOps]latHist{}
		c.count = [numOps]int64{}
	}
	l.gcS, l.analyzeS, l.analyses = 0, 0, 0
	clear(l.phaseReqs)
	clear(l.phaseS)
	stats0, err := run.stats()
	if err != nil {
		return err
	}
	counters0 := readCounters(run.reg, run.svc.Engine().SiteSnapshots())

	minCycles := 1
	if o.traced {
		minCycles = 2 // at least one untraced and one traced cycle
	}
	var cycles []cycleStat
	deadline := time.Now().Add(o.seconds)
	for c := 0; c < minCycles || time.Now().Before(deadline); c++ {
		traced := o.traced && c%2 == 1 && c < 2*maxTracedCycles
		cycles = append(cycles, l.runCycle(strconv.Itoa(c), traced, rep))
	}

	counters := readCounters(run.reg, run.svc.Engine().SiteSnapshots()).sub(counters0)
	stats, err := run.stats()
	if err != nil {
		return err
	}
	if err := run.shutdown(); err != nil {
		return fmt.Errorf("shut down: %w", err)
	}
	run.mergeChecks(rep)

	var all latHist
	var perOp [numOps]latHist
	var counts [numOps]int64
	for _, c := range run.clients {
		for op := range c.hists {
			perOp[op].merge(&c.hists[op])
			all.merge(&c.hists[op])
			counts[op] += c.count[op]
		}
	}
	n := len(cycles)
	cycleS := func(cs []cycleStat) float64 { return median(pluck(cs, func(c cycleStat) float64 { return c.timeS })) }
	rate := func(cs []cycleStat) float64 {
		return median(pluck(cs, func(c cycleStat) float64 { return float64(c.requests) / c.timeS }))
	}
	rep.note("setup ms=%s", fmtReps(pluck(setup, func(x float64) float64 { return x * 1e3 })))
	rep.note("cycles ms=%s", fmtReps(pluck(cycles, func(c cycleStat) float64 { return c.timeS * 1e3 })))
	records := make(map[string]int)
	common := cycles[0].selection
	for _, c := range cycles {
		records[c.selection]++
		if records[c.selection] > records[common] {
			common = c.selection
		}
	}
	rep.note("selection cycles distinct=%d most common=%d/%d: %s", len(records), records[common], n, common)
	if !o.traced {
		rep.set("setup_s", "s", median(setup), len(setup))
		rep.set("run_s", "s", cycleS(cycles), n)
		rep.set("ops_per_s", "1/s", rate(cycles), int(all.n))
		rep.set("req_p50_us", "us", all.quantile(0.50)/1e3, int(all.n))
		rep.set("req_p99_us", "us", all.quantile(0.99)/1e3, int(all.n))
		rep.set("peak_heap_mb", "MB", median(pluck(cycles, func(c cycleStat) float64 { return c.peakMB })), n)
		rep.set("alloc_mb", "MB", median(pluck(cycles, func(c cycleStat) float64 { return c.allocB }))/(1<<20), n)
		return nil
	}

	units := float64(n)
	for op := 0; op < numOps; op++ {
		name := "service." + opName(op)
		rep.set(name+".count", "count", float64(counts[op])/units, int(counts[op]))
		rep.set(name+".p50_us", "us", perOp[op].quantile(0.50)/1e3, int(perOp[op].n))
		rep.set(name+".p99_us", "us", perOp[op].quantile(0.99)/1e3, int(perOp[op].n))
	}
	for pi, ph := range spec.phases {
		rep.set("service."+ph.name+".ops_per_s", "1/s", ratio(float64(l.phaseReqs[pi]), l.phaseS[pi]), int(l.phaseReqs[pi]))
	}
	rep.set("service.collections_created", "count", float64(stats.created()-stats0.created())/units, n)
	rep.set("service.evictions", "count", float64(stats.evicted()), n)
	rep.set("service.live_keys", "count", float64(stats.liveKeys()), n)
	counters.report(rep, units, n, int64(l.analyses*run.svc.Engine().ContextCount()), l.gcS)
	rep.set("core.analyze_s", "s", l.analyzeS/units, l.analyses)

	var tracedC, plainC []cycleStat
	for _, c := range cycles {
		if c.traced {
			tracedC = append(tracedC, c)
		} else {
			plainC = append(plainC, c)
		}
	}
	rep.set("trace.run_s", "s", cycleS(tracedC), len(tracedC))
	rep.set("trace.overhead_run_s", "s", cycleS(tracedC)-cycleS(plainC), len(tracedC))
	rep.set("trace.overhead_ops_per_s", "1/s", rate(tracedC)-rate(plainC), len(tracedC))
	setSelfTimes(rep, ts, float64(len(tracedC)))
	return writeSpans(rep, ts)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func requestsDone(cs []*client) int64 {
	var n int64
	for _, c := range cs {
		for _, k := range c.count {
			n += k
		}
	}
	return n
}

// liveHeapMB reads the heap marked live by the last collection.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

func (r *svcRun) mergeChecks(rep *report) {
	for _, c := range r.clients {
		rep.attempted += c.attempted
		rep.failed += c.failed
		for _, m := range c.mismatches {
			if len(rep.mismatches) < 20 {
				rep.mismatches = append(rep.mismatches, m)
			}
		}
		c.attempted, c.failed, c.mismatches = 0, 0, nil
	}
}

// svcStats is the part of the service's /stats reply the benchmark reads.
type svcStats struct {
	LiveKeys map[string]int   `json:"live_keys"`
	Created  map[string]int64 `json:"collections_created"`
	Evicted  map[string]int64 `json:"collections_evicted"`
}

func sumMap[V int | int64](m map[string]V) V {
	var s V
	for _, v := range m {
		s += v
	}
	return s
}

func (s svcStats) created() int64 { return sumMap(s.Created) }
func (s svcStats) evicted() int64 { return sumMap(s.Evicted) }
func (s svcStats) liveKeys() int  { return sumMap(s.LiveKeys) }

func (r *svcRun) stats() (svcStats, error) {
	var s svcStats
	code, body := serveOnce(r.h, "/stats")
	if code != http.StatusOK {
		return s, fmt.Errorf("/stats: status %d", code)
	}
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		return s, fmt.Errorf("parse /stats: %w", err)
	}
	return s, nil
}
