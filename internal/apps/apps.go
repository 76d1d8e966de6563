// Package apps contains five synthetic applications reproducing the
// collection-usage pathologies of the DaCapo benchmarks the paper evaluates
// on (avrora, bloat, fop, h2, lusearch — Section 5.2). DaCapo itself is JVM
// bytecode and cannot run here; what the experiment actually exercises is
// each benchmark's collection workload shape, which is documented in the
// paper and its citations and regenerated deterministically by these
// programs (see DESIGN.md §4 for the per-app fidelity notes).
//
// Each application runs in three modes mirroring the paper's setups:
//
//   - Original: every allocation site instantiates the fixed default
//     variant the Java developer declared (ArrayList / LinkedList /
//     HashSet / HashMap).
//   - FullAdap: every target allocation site goes through a
//     CollectionSwitch allocation context (full framework).
//   - InstanceAdap: every target site is hardwired to the corresponding
//     adaptive variant, with no allocation-site selection.
package apps

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/collections"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perfmodel"
)

// Mode selects how allocation sites instantiate collections.
type Mode string

// The three evaluation modes of Table 5.
const (
	ModeOriginal     Mode = "original"
	ModeFullAdap     Mode = "fulladap"
	ModeInstanceAdap Mode = "instanceadap"
)

// Modes lists all modes in Table 5 order.
func Modes() []Mode { return []Mode{ModeOriginal, ModeFullAdap, ModeInstanceAdap} }

// App is one synthetic DaCapo application.
type App interface {
	// Name returns the DaCapo benchmark name this app substitutes.
	Name() string
	// Run executes the workload, acquiring collections through env.
	Run(env *Env)
}

// All returns the five applications at the given workload scale (1.0 is the
// full experiment scale; benches use smaller values).
func All(scale float64) []App {
	return []App{
		NewAvrora(scale),
		NewBloat(scale),
		NewFop(scale),
		NewH2(scale),
		NewLusearch(scale),
	}
}

// Result captures one application run.
type Result struct {
	// Elapsed is the wall-clock time of the run (T in Table 5).
	Elapsed time.Duration
	// PeakHeapBytes is the maximum live heap observed at the checkpoints
	// (M in Table 5).
	PeakHeapBytes uint64
	// Transitions holds the variant switches performed (FullAdap only).
	Transitions []core.Transition
	// Sink defeats dead-code elimination and doubles as a semantic
	// checksum: it must not depend on the mode.
	Sink int
}

// Env hands collections to an application according to the active mode and
// tracks peak heap. Applications obtain one factory per allocation site and
// call Checkpoint between work batches.
type Env struct {
	mode   Mode
	engine *core.Engine // non-nil only in FullAdap mode
	rng    *rand.Rand

	peakHeap uint64
	// Sink accumulates application-observable results.
	Sink int

	listSites map[string]func() collections.List[int]
	setSites  map[string]func() collections.Set[int]
	mapSites  map[string]func() collections.Map[int, int]
}

// NewEnv builds an environment for one run. engine must be non-nil exactly
// when mode is ModeFullAdap.
func NewEnv(mode Mode, engine *core.Engine, seed int64) *Env {
	if (engine != nil) != (mode == ModeFullAdap) {
		panic("apps: engine must be provided iff mode is FullAdap")
	}
	return &Env{
		mode:      mode,
		engine:    engine,
		rng:       rand.New(rand.NewSource(seed)),
		listSites: make(map[string]func() collections.List[int]),
		setSites:  make(map[string]func() collections.Set[int]),
		mapSites:  make(map[string]func() collections.Map[int, int]),
	}
}

// Rand returns the env's deterministic random source.
func (e *Env) Rand() *rand.Rand { return e.rng }

// Mode returns the active mode.
func (e *Env) Mode() Mode { return e.mode }

// ListSite returns the factory for a named list allocation site whose
// original declaration was the def variant.
func (e *Env) ListSite(name string, def collections.VariantID) func() collections.List[int] {
	if f, ok := e.listSites[name]; ok {
		return f
	}
	var f func() collections.List[int]
	switch e.mode {
	case ModeOriginal:
		f = func() collections.List[int] { return collections.NewListOf[int](def, 0) }
	case ModeInstanceAdap:
		f = func() collections.List[int] { return collections.NewAdaptiveList[int]() }
	case ModeFullAdap:
		ctx := core.NewListContext[int](e.engine, core.WithName(name), core.WithDefaultVariant(def))
		f = ctx.NewList
	}
	e.listSites[name] = f
	return f
}

// SetSite returns the factory for a named set allocation site.
func (e *Env) SetSite(name string, def collections.VariantID) func() collections.Set[int] {
	if f, ok := e.setSites[name]; ok {
		return f
	}
	var f func() collections.Set[int]
	switch e.mode {
	case ModeOriginal:
		f = func() collections.Set[int] { return collections.NewSetOf[int](def, 0) }
	case ModeInstanceAdap:
		f = func() collections.Set[int] { return collections.NewAdaptiveSet[int]() }
	case ModeFullAdap:
		ctx := core.NewSetContext[int](e.engine, core.WithName(name), core.WithDefaultVariant(def))
		f = ctx.NewSet
	}
	e.setSites[name] = f
	return f
}

// MapSite returns the factory for a named map allocation site.
func (e *Env) MapSite(name string, def collections.VariantID) func() collections.Map[int, int] {
	if f, ok := e.mapSites[name]; ok {
		return f
	}
	var f func() collections.Map[int, int]
	switch e.mode {
	case ModeOriginal:
		f = func() collections.Map[int, int] { return collections.NewMapOf[int, int](def, 0) }
	case ModeInstanceAdap:
		f = func() collections.Map[int, int] { return collections.NewAdaptiveMap[int, int]() }
	case ModeFullAdap:
		ctx := core.NewMapContext[int, int](e.engine, core.WithName(name), core.WithDefaultVariant(def))
		f = ctx.NewMap
	}
	e.mapSites[name] = f
	return f
}

// SiteCount returns the number of distinct allocation sites the app touched
// (the "# Target Alloc." column of Table 5).
func (e *Env) SiteCount() int {
	return len(e.listSites) + len(e.setSites) + len(e.mapSites)
}

// Checkpoint is called by applications between work batches: it forces a
// collection (so weak references clear, as a JVM's GC would naturally),
// samples the live heap for the peak-memory metric, and gives the analysis
// engine a deterministic chance to run.
func (e *Env) Checkpoint() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > e.peakHeap {
		e.peakHeap = ms.HeapAlloc
	}
	if e.engine != nil {
		e.engine.AnalyzeNow()
	}
}

// Obs is the one wiring struct of the experiment engines (see NewEngine):
// Label names the run's engine in emitted events (the experiments use
// "app/mode/rule"), Sink receives every engine event, and Metrics
// aggregates counters across runs. The zero value disables all three.
type Obs struct {
	Label   string
	Sink    obs.Sink
	Metrics *obs.Registry
	// Parallelism is handed to the engine as Config.AnalysisParallelism:
	// 0 uses the engine default (GOMAXPROCS); 1 analyzes contexts
	// sequentially in registration order, reproducing the historical
	// single-threaded event stream exactly.
	Parallelism int
	// Confidence is handed to the engine as Config.ConfidenceLevel: a
	// level in (0, 1) arms confidence-aware switching, 0 keeps the
	// historical point-estimate behavior.
	Confidence float64
	// Models overrides the engine's cost models (nil = analytic defaults).
	Models *perfmodel.Models
	// WarmStart is handed to the engine as Config.WarmStart: persisted
	// site decisions restore variants at context registration (nil = cold
	// start, the historical behavior).
	WarmStart core.WarmStarter
	// Snapshots, when non-nil, receives the engine's per-site state after
	// the run completes (before the engine closes) — the hook cmd tools
	// use to persist decisions into a warm-start store.
	Snapshots func([]core.SiteSnapshot)
	// EngineHook, when non-nil, observes the run's engine right after
	// construction (FullAdap mode only; the other modes create none) —
	// the diag introspection server attaches here.
	EngineHook func(*core.Engine)
}

// Run executes app once in the given mode and returns its measurements.
// rule is only consulted in FullAdap mode.
func Run(app App, mode Mode, rule core.Rule, seed int64) Result {
	return RunObs(app, mode, rule, seed, Obs{})
}

// NewEngine builds one run's manual engine from base — the caller's window,
// rule and own sink — plus o's wiring: Label names the engine, Sink joins
// base.Sink, and Models, Parallelism, Confidence, Metrics and WarmStart pass
// through to the core.Config fields they document. EngineHook observes the
// engine before it is returned; delivering Snapshots is the caller's job,
// since only the caller knows when its run is complete.
func (o Obs) NewEngine(base core.Config) *core.Engine {
	base.Name = o.Label
	base.Models = o.Models
	base.AnalysisParallelism = o.Parallelism
	base.ConfidenceLevel = o.Confidence
	base.Metrics = o.Metrics
	base.WarmStart = o.WarmStart
	base.Sink = obs.Multi(base.Sink, o.Sink)
	e := core.NewEngineManual(base)
	if o.EngineHook != nil {
		o.EngineHook(e)
	}
	return e
}

// RunObs is Run with observability wiring. In FullAdap mode the engine's
// structured event stream is always collected — Result.Transitions is
// rebuilt from the Transition events rather than read out of engine
// internals, so everything Table 6 aggregates demonstrably travels on the
// event layer.
func RunObs(app App, mode Mode, rule core.Rule, seed int64, o Obs) Result {
	var engine *core.Engine
	var col *obs.Collector
	if mode == ModeFullAdap {
		col = obs.NewCollector()
		engine = o.NewEngine(core.Config{WindowSize: 100, FinishedRatio: 0.6, Rule: rule, Sink: col})
		defer engine.Close()
	}
	env := NewEnv(mode, engine, seed)
	start := time.Now()
	app.Run(env)
	elapsed := time.Since(start)
	env.Checkpoint()
	if engine != nil && o.Snapshots != nil {
		o.Snapshots(engine.SiteSnapshots())
	}
	res := Result{
		Elapsed:       elapsed,
		PeakHeapBytes: env.peakHeap,
		Sink:          env.Sink,
	}
	if col != nil {
		res.Transitions = transitionsFromEvents(col.Events())
	}
	return res
}

// transitionsFromEvents rebuilds the core transition log from a structured
// event stream.
func transitionsFromEvents(events []obs.Event) []core.Transition {
	var out []core.Transition
	for _, ev := range events {
		t, ok := ev.(obs.Transition)
		if !ok {
			continue
		}
		tr := core.Transition{
			Context: t.Context,
			From:    collections.VariantID(t.From),
			To:      collections.VariantID(t.To),
			Round:   t.Round,
		}
		if len(t.Ratios) > 0 {
			tr.Ratios = make(map[perfmodel.Dimension]float64, len(t.Ratios))
			for d, v := range t.Ratios {
				tr.Ratios[perfmodel.Dimension(d)] = v
			}
		}
		out = append(out, tr)
	}
	return out
}

// scaled returns max(1, round(n*scale)).
func scaled(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 1 {
		return 1
	}
	return v
}
