package core

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/collections"
	"repro/internal/perfmodel"
)

// testEngine returns a manual engine with a small window for fast tests.
func testEngine(rule Rule) *Engine {
	return NewEngineManual(Config{
		WindowSize:      10,
		FinishedRatio:   0.6,
		Rule:            rule,
		CooldownWindows: -1, // tests drive rounds explicitly
	})
}

// churnLists creates n lists through the context, applies work to each and
// drops them all, then forces the GC so the weak references clear.
func churnLists(ctx *ListContext[int], n, size, lookups int) {
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

func TestListContextSwitchesOnLookupHeavyWorkload(t *testing.T) {
	e := testEngine(Rtime())
	defer e.Close()
	ctx := NewListContext[int](e, WithName("test:list"))
	if got := ctx.CurrentVariant(); got != collections.ArrayListID {
		t.Fatalf("default variant = %s, want ArrayList", got)
	}
	churnLists(ctx, 10, 500, 500)
	e.AnalyzeNow()
	if got := ctx.CurrentVariant(); got != collections.HashArrayListID {
		t.Fatalf("after analysis variant = %s, want HashArrayList", got)
	}
	trs := e.Transitions()
	if len(trs) != 1 {
		t.Fatalf("transition log has %d entries, want 1", len(trs))
	}
	tr := trs[0]
	if tr.Context != "test:list" || tr.From != collections.ArrayListID || tr.To != collections.HashArrayListID {
		t.Fatalf("transition = %+v", tr)
	}
	if tr.Ratios[perfmodel.DimTimeNS] >= 0.8 {
		t.Fatalf("logged time ratio = %g", tr.Ratios[perfmodel.DimTimeNS])
	}
	if ctx.Round() != 1 {
		t.Fatalf("round = %d, want 1", ctx.Round())
	}
	// New instances now use the switched variant.
	l := ctx.NewList()
	if !isMonitoredList(l) {
		t.Fatal("post-switch instance not monitored (new round should monitor)")
	}
}

func TestListContextStaysOnSmallSizes(t *testing.T) {
	e := testEngine(Rtime())
	defer e.Close()
	ctx := NewListContext[int](e)
	churnLists(ctx, 10, 10, 50)
	e.AnalyzeNow()
	if got := ctx.CurrentVariant(); got != collections.ArrayListID {
		t.Fatalf("small-size workload switched to %s", got)
	}
	// The round still completes: monitoring restarts.
	if ctx.Round() != 1 {
		t.Fatalf("round = %d, want 1", ctx.Round())
	}
}

func TestContextNoDecisionBeforeWindowFull(t *testing.T) {
	e := testEngine(Rtime())
	defer e.Close()
	ctx := NewListContext[int](e)
	churnLists(ctx, 5, 500, 100) // half the window
	e.AnalyzeNow()
	if ctx.Round() != 0 {
		t.Fatal("decision made before window filled")
	}
	if got := ctx.CurrentVariant(); got != collections.ArrayListID {
		t.Fatalf("variant changed to %s before window filled", got)
	}
}

func TestContextNoDecisionBeforeFinishedRatio(t *testing.T) {
	e := testEngine(Rtime())
	defer e.Close()
	ctx := NewListContext[int](e)
	// Fill the window but keep strong references to all instances: none
	// can finish.
	live := make([]collections.List[int], 0, 10)
	for i := 0; i < 10; i++ {
		l := ctx.NewList()
		for j := 0; j < 500; j++ {
			l.Add(j)
		}
		for j := 0; j < 100; j++ {
			l.Contains(j)
		}
		live = append(live, l)
	}
	runtime.GC()
	e.AnalyzeNow()
	if ctx.Round() != 0 {
		t.Fatal("decision made with zero finished instances")
	}
	// Drop 4 of 10 (below the 0.6 ratio): still no decision. The slice
	// entries must be nilled — truncating alone keeps the backing array
	// referencing the monitors.
	for i := 6; i < 10; i++ {
		live[i] = nil
	}
	live = live[:6]
	runtime.GC()
	e.AnalyzeNow()
	if ctx.Round() != 0 {
		t.Fatal("decision made below the finished ratio")
	}
	// Drop to 6 finished (at the ratio): decision fires.
	for i := 4; i < 6; i++ {
		live[i] = nil
	}
	live = live[:4]
	runtime.GC()
	e.AnalyzeNow()
	if ctx.Round() != 1 {
		t.Fatal("no decision at the finished ratio")
	}
	runtime.KeepAlive(live)
}

func TestSetContextSwitch(t *testing.T) {
	e := testEngine(Rtime())
	defer e.Close()
	ctx := NewSetContext[int](e, WithName("test:set"))
	if got := ctx.CurrentVariant(); got != collections.HashSetID {
		t.Fatalf("default set variant = %s", got)
	}
	for i := 0; i < 10; i++ {
		s := ctx.NewSet()
		for j := 0; j < 500; j++ {
			s.Add(j)
		}
		for j := 0; j < 100; j++ {
			s.Contains(j * 2)
		}
	}
	runtime.GC()
	e.AnalyzeNow()
	if got := ctx.CurrentVariant(); got != collections.OpenHashSetFastID {
		t.Fatalf("set switched to %s, want %s", got, collections.OpenHashSetFastID)
	}
}

func TestMapContextSwitchUnderRalloc(t *testing.T) {
	e := testEngine(Ralloc())
	defer e.Close()
	ctx := NewMapContext[int, string](e, WithName("test:map"))
	if got := ctx.CurrentVariant(); got != collections.HashMapID {
		t.Fatalf("default map variant = %s", got)
	}
	for i := 0; i < 10; i++ {
		m := ctx.NewMap()
		for j := 0; j < 150; j++ {
			m.Put(j, "v")
		}
		for j := 0; j < 100; j++ {
			m.Get(j)
		}
	}
	runtime.GC()
	e.AnalyzeNow()
	if got := ctx.CurrentVariant(); got != collections.OpenHashMapCmpID {
		t.Fatalf("map switched to %s, want %s (compact preset at size 150)",
			got, collections.OpenHashMapCmpID)
	}
}

func TestImpossibleRuleNeverSwitches(t *testing.T) {
	e := testEngine(ImpossibleRule())
	defer e.Close()
	ctx := NewListContext[int](e)
	for round := 0; round < 3; round++ {
		churnLists(ctx, 10, 500, 100)
		e.AnalyzeNow()
	}
	if got := ctx.CurrentVariant(); got != collections.ArrayListID {
		t.Fatalf("impossible rule switched to %s", got)
	}
	if len(e.Transitions()) != 0 {
		t.Fatalf("impossible rule logged %d transitions", len(e.Transitions()))
	}
	if ctx.Round() != 3 {
		t.Fatalf("rounds = %d, want 3 (analysis must still cycle)", ctx.Round())
	}
}

func TestContextMonitorsOnlyWindow(t *testing.T) {
	e := testEngine(Rtime())
	defer e.Close()
	ctx := NewListContext[int](e)
	monitored := 0
	for i := 0; i < 25; i++ {
		if isMonitoredList(ctx.NewList()) {
			monitored++
		}
	}
	if monitored != 10 {
		t.Fatalf("monitored %d instances, want window size 10", monitored)
	}
}

func TestContextContinuousAdaptation(t *testing.T) {
	// After switching, a new monitoring round can switch back when the
	// workload changes (the paper's continuous adaptation property).
	e := testEngine(Rtime())
	defer e.Close()
	ctx := NewListContext[int](e, WithName("test:phases"))
	// Phase 1: lookup-heavy -> HashArrayList.
	churnLists(ctx, 10, 500, 200)
	e.AnalyzeNow()
	if got := ctx.CurrentVariant(); got != collections.HashArrayListID {
		t.Fatalf("phase 1 variant = %s", got)
	}
	// Phase 2: iteration-only -> back to ArrayList (cheaper populate,
	// same iterate).
	for i := 0; i < 10; i++ {
		l := ctx.NewList()
		for j := 0; j < 500; j++ {
			l.Add(j)
		}
		sum := 0
		for k := 0; k < 50; k++ {
			l.ForEach(func(v int) bool { sum += v; return true })
		}
	}
	runtime.GC()
	e.AnalyzeNow()
	if got := ctx.CurrentVariant(); got != collections.ArrayListID {
		t.Fatalf("phase 2 variant = %s, want ArrayList", got)
	}
	if len(e.Transitions()) != 2 {
		t.Fatalf("transitions = %d, want 2", len(e.Transitions()))
	}
}

func TestWithCandidatesRestricts(t *testing.T) {
	e := testEngine(Rtime())
	defer e.Close()
	ctx := NewListContext[int](e,
		WithCandidates(collections.ArrayListID, collections.LinkedListID))
	churnLists(ctx, 10, 500, 200) // would pick HashArrayList if allowed
	e.AnalyzeNow()
	if got := ctx.CurrentVariant(); got != collections.ArrayListID {
		t.Fatalf("restricted context switched to %s", got)
	}
}

func TestWithDefaultVariant(t *testing.T) {
	e := testEngine(Rtime())
	defer e.Close()
	ctx := NewListContext[int](e, WithDefaultVariant(collections.LinkedListID))
	if got := ctx.CurrentVariant(); got != collections.LinkedListID {
		t.Fatalf("default variant = %s", got)
	}
	l := ctx.NewList()
	l.Add(1)
	if !l.Contains(1) {
		t.Fatal("created list does not work")
	}
}

func TestContextAutoName(t *testing.T) {
	e := testEngine(Rtime())
	defer e.Close()
	ctx := NewListContext[int](e)
	if !strings.Contains(ctx.Name(), "context_test.go:") {
		t.Fatalf("auto name = %q, want caller site", ctx.Name())
	}
}

func TestEngineDefaults(t *testing.T) {
	e := NewEngineManual(Config{})
	cfg := e.Config()
	if cfg.WindowSize != 100 {
		t.Errorf("WindowSize = %d, want 100", cfg.WindowSize)
	}
	if cfg.FinishedRatio != 0.6 {
		t.Errorf("FinishedRatio = %g, want 0.6", cfg.FinishedRatio)
	}
	if cfg.MonitorRate != 50*time.Millisecond {
		t.Errorf("MonitorRate = %v, want 50ms", cfg.MonitorRate)
	}
	if cfg.Rule.Name != "Rtime" {
		t.Errorf("Rule = %s, want Rtime", cfg.Rule.Name)
	}
	if cfg.Models == nil {
		t.Error("Models not defaulted")
	}
	if cfg.AdaptiveSizeSpread != 4 {
		t.Errorf("AdaptiveSizeSpread = %g, want 4", cfg.AdaptiveSizeSpread)
	}
	if cfg.CooldownWindows != 3 {
		t.Errorf("CooldownWindows = %g, want 3", cfg.CooldownWindows)
	}
	neg := NewEngineManual(Config{CooldownWindows: -1})
	if neg.Config().CooldownWindows != 0 {
		t.Errorf("negative CooldownWindows not normalized to 0")
	}
}

func TestBackgroundEngineAnalyzes(t *testing.T) {
	e := NewEngine(Config{
		WindowSize:      10,
		FinishedRatio:   0.6,
		MonitorRate:     5 * time.Millisecond,
		Rule:            Rtime(),
		CooldownWindows: -1,
	})
	defer e.Close()
	ctx := NewListContext[int](e, WithName("bg:list"))
	churnLists(ctx, 10, 500, 500)
	// A background pass probes each record's weak pointer, and a probe
	// during a GC's mark phase keeps that monitor alive through the cycle.
	// churnLists collects once; if that cycle overlaps a pass, nothing is
	// reclaimed and an idle test would never collect again. Keep collecting,
	// as a running program's allocations would, until the window closes.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if ctx.CurrentVariant() == collections.HashArrayListID {
			return
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("background engine never switched; variant = %s", ctx.CurrentVariant())
}

func TestEngineCloseIdempotent(t *testing.T) {
	e := NewEngine(Config{MonitorRate: time.Millisecond})
	e.Close()
	e.Close() // must not panic or deadlock
	em := NewEngineManual(Config{})
	em.Close()
	em.Close()
}

func TestEngineConcurrentCreationAndAnalysis(t *testing.T) {
	e := NewEngine(Config{
		WindowSize:    50,
		MonitorRate:   time.Millisecond,
		FinishedRatio: 0.5,
	})
	defer e.Close()
	listCtx := NewListContext[int](e)
	setCtx := NewSetContext[int](e)
	mapCtx := NewMapContext[int, int](e)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l := listCtx.NewList()
				s := setCtx.NewSet()
				m := mapCtx.NewMap()
				for j := 0; j < 50; j++ {
					l.Add(j)
					s.Add(j * seed)
					m.Put(j, j)
				}
				l.Contains(25)
				s.Contains(25)
				m.Get(25)
			}
		}(g + 1)
	}
	wg.Wait()
	runtime.GC()
	e.AnalyzeNow()
	// No assertion beyond absence of races/panics and usable state.
	if e.ContextCount() != 3 {
		t.Fatalf("ContextCount = %d", e.ContextCount())
	}
}

func TestUnknownDefaultVariantPanics(t *testing.T) {
	e := testEngine(Rtime())
	defer e.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("unknown default variant did not panic")
		}
	}()
	NewListContext[int](e, WithDefaultVariant("set/hash")) // wrong abstraction
}

func TestMonitoredWrapperCountsOps(t *testing.T) {
	p := newProfile()
	m, _ := wrapList(collections.NewArrayList[int](), p)
	m.Add(1)
	m.Add(2)
	m.Insert(1, 3) // middle insert: add + middle
	m.Insert(3, 4) // append insert: add only
	m.Contains(1)
	m.IndexOf(2)
	m.ForEach(func(int) bool { return true })
	m.RemoveAt(0)
	m.Remove(3) // contains + middle
	w := p.snapshot()
	if w.Adds != 4 {
		t.Errorf("Adds = %d, want 4", w.Adds)
	}
	if w.Contains != 3 {
		t.Errorf("Contains = %d, want 3", w.Contains)
	}
	if w.Iterates != 1 {
		t.Errorf("Iterates = %d, want 1", w.Iterates)
	}
	if w.Middles != 3 {
		t.Errorf("Middles = %d, want 3", w.Middles)
	}
	if w.MaxSize != 4 {
		t.Errorf("MaxSize = %d, want 4", w.MaxSize)
	}
}

func TestMonitoredSetAndMapCounts(t *testing.T) {
	ps := newProfile()
	s, _ := wrapSet(collections.NewHashSet[int](), ps)
	s.Add(1)
	s.Add(1) // duplicate still counts as an add call
	s.Contains(1)
	s.Remove(1)
	s.ForEach(func(int) bool { return true })
	ws := ps.snapshot()
	if ws.Adds != 2 || ws.Contains != 1 || ws.Middles != 1 || ws.Iterates != 1 {
		t.Errorf("set workload = %+v", ws)
	}
	if ws.MaxSize != 1 {
		t.Errorf("set MaxSize = %d, want 1", ws.MaxSize)
	}

	pm := newProfile()
	m, _ := wrapMap(collections.NewHashMap[int, int](), pm)
	m.Put(1, 1)
	m.Put(2, 2)
	m.Get(1)
	m.ContainsKey(2)
	m.Remove(1)
	m.ForEach(func(int, int) bool { return true })
	wm := pm.snapshot()
	if wm.Adds != 2 || wm.Contains != 2 || wm.Middles != 1 || wm.Iterates != 1 {
		t.Errorf("map workload = %+v", wm)
	}
	if wm.MaxSize != 2 {
		t.Errorf("map MaxSize = %d, want 2", wm.MaxSize)
	}
}

func TestProfileObserveSizeMonotonic(t *testing.T) {
	p := newProfile()
	sh := p.base()
	sh.observeSize(5)
	sh.observeSize(3)
	sh.observeSize(8)
	sh.observeSize(1)
	if got := p.snapshot().MaxSize; got != 8 {
		t.Fatalf("MaxSize = %d, want 8", got)
	}
}

// TestProfileShardsSumExactly pins the shard-then-aggregate invariant the
// whole refactor rests on: concurrent increments spread over the counter
// stripes must sum to exactly the number of increments performed, and the
// per-shard max-size high-water marks must combine into exactly the global
// maximum — regardless of how the goroutine hash distributed the writers.
func TestProfileShardsSumExactly(t *testing.T) {
	// Build a multi-stripe profile directly: on a narrow host newProfile
	// collapses to one stripe, which would make this test vacuous.
	p := &profile{shards: make([]pshard, 8)}
	const goroutines = 8
	const perG = 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				sh := stripeOf(p.base(), p.maskBytes())
				sh.adds.Add(1)
				sh.contains.Add(1)
				sh.observeSize(g*perG + i)
			}
		}(g)
	}
	wg.Wait()
	w := p.snapshot()
	if w.Adds != goroutines*perG || w.Contains != goroutines*perG {
		t.Errorf("shard sums = adds %d contains %d, want %d each", w.Adds, w.Contains, goroutines*perG)
	}
	if want := int64(goroutines*perG - 1); w.MaxSize != want {
		t.Errorf("MaxSize = %d, want %d", w.MaxSize, want)
	}
	// Recycling must hand back a clean profile.
	p.release()
	q := newProfile()
	defer q.release()
	if w := q.snapshot(); w != (Workload{}) {
		t.Errorf("pooled profile not zeroed: %+v", w)
	}
}
