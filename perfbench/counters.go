package main

import (
	"runtime"

	"repro/internal/core"
	"repro/internal/obs"
)

// layerCounters is a snapshot of the cumulative counters a traced run
// reports per unit of work. A run reports the difference between the
// snapshots after its warm-up and at its end.
type layerCounters struct {
	created, monitored, rounds, analysisNs int64
	windows, rules, transitions, events    int64
	adds, contains, iterates, middles      float64
	gcCycles                               uint32
	gcPauseNs                              uint64
}

// readCounters reads reg's engine counters, the Go runtime's collection
// counters and the operation totals of the site profiles in snaps.
func readCounters(reg *obs.Registry, snaps []core.SiteSnapshot) layerCounters {
	c := layerCounters{
		created:     reg.InstancesCreated.Load(),
		monitored:   reg.InstancesMonitored.Load(),
		rounds:      reg.AnalysisRounds.Load(),
		analysisNs:  reg.SelfOverheadNs.Load(),
		windows:     reg.WindowsClosed.Load(),
		rules:       reg.RuleEvaluations.Load(),
		transitions: reg.TransitionsTotal(),
	}
	for _, n := range reg.EventCounts() {
		c.events += n
	}
	for _, s := range snaps {
		c.adds += s.Profile.Adds
		c.contains += s.Profile.Contains
		c.iterates += s.Profile.Iterates
		c.middles += s.Profile.Middles
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.gcCycles, c.gcPauseNs = ms.NumGC, ms.PauseTotalNs
	return c
}

func (c layerCounters) sub(o layerCounters) layerCounters {
	return layerCounters{
		created: c.created - o.created, monitored: c.monitored - o.monitored,
		rounds: c.rounds - o.rounds, analysisNs: c.analysisNs - o.analysisNs,
		windows: c.windows - o.windows, rules: c.rules - o.rules,
		transitions: c.transitions - o.transitions, events: c.events - o.events,
		adds: c.adds - o.adds, contains: c.contains - o.contains,
		iterates: c.iterates - o.iterates, middles: c.middles - o.middles,
		gcCycles: c.gcCycles - o.gcCycles, gcPauseNs: c.gcPauseNs - o.gcPauseNs,
	}
}

// report sets the core, collections, obs and runtime per-layer metrics from
// the counter deltas d, per unit of work. contextAnalyses is the number of
// per-context analyses the passes ran; forcedGCS is the time the
// benchmark's own runtime.GC calls took.
func (d layerCounters) report(rep *report, units float64, n int, contextAnalyses int64, forcedGCS float64) {
	per := func(v float64) float64 { return v / units }
	rep.set("core.instances_created", "count", per(float64(d.created)), n)
	rep.set("core.instances_monitored", "count", per(float64(d.monitored)), n)
	rep.set("core.monitored_frac", "ratio", ratio(float64(d.monitored), float64(d.created)), n)
	rep.set("core.analysis_rounds", "count", per(float64(d.rounds)), n)
	rep.set("core.analysis_s", "s", per(float64(d.analysisNs)/1e9), n)
	rep.set("core.windows_closed", "count", per(float64(d.windows)), n)
	rep.set("core.rule_evaluations", "count", per(float64(d.rules)), n)
	rep.set("core.transitions", "count", per(float64(d.transitions)), n)
	rep.set("core.window_yield", "ratio", ratio(float64(d.windows), float64(contextAnalyses)), n)
	rep.set("core.switch_yield", "ratio", ratio(float64(d.transitions), float64(d.rules)), n)
	rep.set("collections.adds", "count", per(d.adds), n)
	rep.set("collections.contains", "count", per(d.contains), n)
	rep.set("collections.iterates", "count", per(d.iterates), n)
	rep.set("collections.middles", "count", per(d.middles), n)
	rep.set("obs.events", "count", per(float64(d.events)), n)
	rep.set("runtime.gc_cycles", "count", per(float64(d.gcCycles)), n)
	rep.set("runtime.gc_pause_s", "s", per(float64(d.gcPauseNs)/1e9), n)
	rep.set("runtime.forced_gc_s", "s", per(forcedGCS), n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
