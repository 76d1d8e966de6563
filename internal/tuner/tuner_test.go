package tuner

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/collections"
	"repro/internal/core"
	"repro/internal/obs"
)

// churn creates n lists through the context with the given size and lookup
// count each, drops them, and forces a GC so the weak references clear.
func churn(ctx *core.ListContext[int], n, size, lookups int) {
	for i := 0; i < n; i++ {
		l := ctx.NewList()
		for j := 0; j < size; j++ {
			l.Add(j)
		}
		for j := 0; j < lookups; j++ {
			l.Contains(j % (size + 1))
		}
	}
	runtime.GC()
}

func countKind(events []obs.Event, k obs.Kind) int {
	n := 0
	for _, e := range events {
		if e.EventKind() == k {
			n++
		}
	}
	return n
}

// TestColdThenWarmDemo pins the PR's two-run contract end to end. Run 1
// starts cold, converges demo:list to HashArrayList, calibrates, and
// persists. Run 2 opens the same store: the site warm-starts on the
// persisted variant, the refined models come back from disk, and a stable
// workload closes windows without a single transition.
func TestColdThenWarmDemo(t *testing.T) {
	dir := t.TempDir()

	// --- Run 1: cold ---
	col1 := obs.NewCollector()
	reg1 := obs.NewRegistry()
	store1 := Open(dir, col1, reg1)
	e1 := core.NewEngineManual(core.Config{
		WindowSize: 10, FinishedRatio: 0.6, CooldownWindows: -1,
		Name: "run1", Sink: col1, Metrics: reg1, WarmStart: store1,
	})
	ctx1 := core.NewListContext[int](e1, core.WithName("demo:list"))
	churn(ctx1, 10, 500, 500)
	e1.AnalyzeNow()
	if got := ctx1.CurrentVariant(); got != collections.HashArrayListID {
		t.Fatalf("cold run variant = %s, want HashArrayList", got)
	}
	if got := len(e1.Transitions()); got != 1 {
		t.Fatalf("cold run transitions = %d, want 1", got)
	}
	tn := New(Config{Engine: e1, Store: store1, Budget: 1, Sink: col1, Metrics: reg1})
	measured := tn.RunOnce()
	if measured == 0 {
		t.Fatal("calibration measured no cells")
	}
	if got := reg1.CalibrationRuns.Load(); got != 1 {
		t.Errorf("CalibrationRuns = %d, want 1", got)
	}
	if countKind(col1.Events(), obs.KindCalibrationStarted) != 1 ||
		countKind(col1.Events(), obs.KindCalibrationCompleted) != 1 {
		t.Error("calibration cycle events missing")
	}
	if countKind(col1.Events(), obs.KindStoreSaved) != 1 {
		t.Error("calibration cycle did not save the store")
	}
	if _, ok := e1.Models().MeasuredOn(); !ok {
		t.Error("hot-swapped models carry no fingerprint")
	}
	if countKind(col1.Events(), obs.KindWarmStart) != 0 {
		t.Error("cold run emitted warm_start events")
	}
	e1.Close()

	// --- Run 2: warm ---
	col2 := obs.NewCollector()
	reg2 := obs.NewRegistry()
	store2 := Open(dir, col2, reg2)
	if got := reg2.StoreLoads.Load(); got != 1 {
		t.Fatalf("StoreLoads = %d, want 1 (events: %v)", got, col2.Events())
	}
	models := store2.Models()
	if models == nil {
		t.Fatal("warm run found no persisted models")
	}
	e2 := core.NewEngineManual(core.Config{
		WindowSize: 10, FinishedRatio: 0.6, CooldownWindows: -1,
		Name: "run2", Sink: col2, Metrics: reg2, WarmStart: store2, Models: models,
	})
	ctx2 := core.NewListContext[int](e2, core.WithName("demo:list"))
	// Warm start applies before the first collection exists.
	if got := ctx2.CurrentVariant(); got != collections.HashArrayListID {
		t.Fatalf("warm run starts on %s, want HashArrayList restored", got)
	}
	if got := countKind(col2.Events(), obs.KindWarmStart); got != 1 {
		t.Fatalf("warm run warm_start events = %d, want 1", got)
	}
	if _, ok := e2.Models().MeasuredOn(); !ok {
		t.Error("warm engine not running on the persisted (fingerprinted) models")
	}
	// The stable workload holds the restored variant: windows close, no
	// transitions, no rule evaluations.
	for round := 0; round < 3; round++ {
		churn(ctx2, 10, 500, 500)
		e2.AnalyzeNow()
	}
	if got := ctx2.Round(); got != 3 {
		t.Fatalf("warm run rounds = %d, want 3", got)
	}
	if got := len(e2.Transitions()); got != 0 {
		t.Errorf("warm run transitions = %d, want 0 on the stable site", got)
	}
	if got := reg2.RuleEvaluations.Load(); got != 0 {
		t.Errorf("warm run RuleEvaluations = %d, want 0", got)
	}
	if got := countKind(col2.Events(), obs.KindCalibrationDrift); got != 0 {
		t.Errorf("stable warm run emitted %d drift events", got)
	}
	e2.Close()
}

// TestBudgetEnforced pins the duty-cycle invariant: the tuner's shadow
// wall-clock never exceeds Budget × elapsed, checked after every cycle.
func TestBudgetEnforced(t *testing.T) {
	e := core.NewEngineManual(core.Config{
		WindowSize: 10, FinishedRatio: 0.6, CooldownWindows: -1,
	})
	defer e.Close()
	ctx := core.NewListContext[int](e, core.WithName("budget:list"))
	churn(ctx, 10, 100, 100)
	e.AnalyzeNow()

	const budget = 0.05
	tn := New(Config{Engine: e, Budget: budget, MaxCellTime: time.Millisecond})
	measured := 0
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		measured += tn.RunOnce()
		if frac := tn.ShadowFraction(); frac > budget {
			t.Fatalf("ShadowFraction = %.4f exceeds budget %.2f", frac, budget)
		}
		if measured > 0 && tn.ShadowFraction() > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if measured == 0 {
		t.Fatal("budgeted tuner never measured a cell within 5s")
	}
	// Cells are deduplicated across cycles: re-running does not re-spend.
	spent := tn.ShadowFraction()
	again := tn.RunOnce()
	if again != 0 {
		t.Errorf("second cycle re-measured %d cells", again)
	}
	if frac := tn.ShadowFraction(); frac > spent {
		t.Errorf("ShadowFraction grew from %.4f to %.4f on a no-op cycle", spent, frac)
	}
}

// TestPauseStopsCalibration: a paused tuner's RunOnce is a no-op until
// Resume.
func TestPauseStopsCalibration(t *testing.T) {
	e := core.NewEngineManual(core.Config{
		WindowSize: 10, FinishedRatio: 0.6, CooldownWindows: -1,
	})
	defer e.Close()
	ctx := core.NewListContext[int](e, core.WithName("pause:list"))
	churn(ctx, 10, 50, 50)
	e.AnalyzeNow()

	reg := obs.NewRegistry()
	tn := New(Config{Engine: e, Budget: 1, Metrics: reg})
	tn.Pause()
	if got := tn.RunOnce(); got != 0 {
		t.Fatalf("paused RunOnce measured %d cells", got)
	}
	if got := reg.CalibrationRuns.Load(); got != 0 {
		t.Errorf("paused tuner counted %d calibration runs", got)
	}
	tn.Resume()
	if got := tn.RunOnce(); got == 0 {
		t.Fatal("resumed tuner measured nothing")
	}
}

// TestTunerCoversCatalog asserts every default-pool catalog variant is
// shadow-benchmarkable: it must resolve to a bench adapter at int, so a
// future Register*Variant without one fails loudly here instead of being
// silently skipped by calibration.
func TestTunerCoversCatalog(t *testing.T) {
	entries := collections.Entries()
	if len(entries) == 0 {
		t.Fatal("empty catalog")
	}
	candidates := 0
	for _, e := range entries {
		if !e.DefaultCandidate {
			continue
		}
		candidates++
		target, ok := collections.BenchTargetFor(e.Info.ID)
		if !ok || target.Adapter == nil {
			t.Errorf("default-pool variant %s has no bench adapter: the tuner cannot shadow-benchmark it", e.Info.ID)
			continue
		}
		// The adapter must actually produce a usable handle at int.
		h := target.Adapter([]int{5, 0, 12, 7, 3, 14, 9, 1})
		if h == nil {
			t.Errorf("bench adapter of %s returned nil handle", e.Info.ID)
			continue
		}
		h.Contains(12)
		h.Iterate()
		h.Middle()
	}
	if candidates == 0 {
		t.Fatal("catalog reports no default candidates")
	}
}

// TestModelsRefinedBySampledSizes: after a calibration cycle, the engine's
// models differ from the analytic priors inside the sampled bands and agree
// with them far outside.
func TestModelsRefinedBySampledSizes(t *testing.T) {
	e := core.NewEngineManual(core.Config{
		WindowSize: 10, FinishedRatio: 0.6, CooldownWindows: -1,
	})
	defer e.Close()
	prior := e.Models()
	ctx := core.NewListContext[int](e, core.WithName("refine:list"))
	churn(ctx, 10, 200, 200)
	e.AnalyzeNow()

	tn := New(Config{Engine: e, Budget: 1})
	if tn.RunOnce() == 0 {
		t.Fatal("no cells measured")
	}
	refined := e.Models()
	if refined == prior {
		t.Fatal("models were not hot-swapped")
	}
	// At the sampled size the refined curve carries a real measurement: a
	// positive cost that (almost surely) differs from the analytic value.
	got := refined.Cost(collections.ArrayListID, "contains", "time-ns", 200)
	if got <= 0 {
		t.Errorf("refined contains cost at sampled size = %g, want > 0", got)
	}
	// Far outside every sampled band the analytic prior survives exactly.
	farPrior := prior.Cost(collections.ArrayListID, "contains", "time-ns", 1e9)
	farRefined := refined.Cost(collections.ArrayListID, "contains", "time-ns", 1e9)
	if farPrior != farRefined {
		t.Errorf("prior curve not preserved outside sampled bands: %g != %g", farRefined, farPrior)
	}
}
