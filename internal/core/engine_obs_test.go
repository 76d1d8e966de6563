package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// eventKinds projects a collector's stream to its kind sequence.
func eventKinds(events []obs.Event) []obs.Kind {
	out := make([]obs.Kind, len(events))
	for i, e := range events {
		out[i] = e.EventKind()
	}
	return out
}

func firstOfKind(events []obs.Event, k obs.Kind) (obs.Event, bool) {
	for _, e := range events {
		if e.EventKind() == k {
			return e, true
		}
	}
	return nil, false
}

func TestRegisterAfterCloseIsLoggedNoOp(t *testing.T) {
	col := obs.NewCollector()
	e := NewEngineManual(Config{WindowSize: 10, Name: "closed", Sink: col})
	e.Close()
	ctx := NewListContext[int](e, WithName("late:list"))

	if got := e.ContextCount(); got != 0 {
		t.Errorf("ContextCount = %d after post-close registration, want 0", got)
	}
	if got := e.Metrics().RegistrationsDropped.Load(); got != 1 {
		t.Errorf("RegistrationsDropped = %d, want 1", got)
	}
	ev, ok := firstOfKind(col.Events(), obs.KindContextRegistered)
	if !ok {
		t.Fatal("no ContextRegistered event emitted")
	}
	reg := ev.(obs.ContextRegistered)
	if !reg.Dropped || reg.Context != "late:list" {
		t.Errorf("event = %+v, want Dropped=true Context=late:list", reg)
	}
	// The context must stay usable for plain creation.
	l := ctx.NewList()
	l.Add(1)
	if !l.Contains(1) {
		t.Error("collection from unregistered context not functional")
	}
}

// blockingCtx is a fake analyzable whose analyze() parks until released,
// letting the test hold an analysis pass in flight.
type blockingCtx struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (b *blockingCtx) analyze() {
	b.once.Do(func() { close(b.entered) })
	<-b.release
}
func (b *blockingCtx) contextName() string { return "blocking" }
func (b *blockingCtx) rename(string)       {}
func (b *blockingCtx) windowStats() obs.ContextWindowStat {
	return obs.ContextWindowStat{Context: "blocking"}
}
func (b *blockingCtx) warmStart(WarmDecision) bool       { return false }
func (b *blockingCtx) siteSnapshot() SiteSnapshot        { return SiteSnapshot{Name: "blocking"} }
func (b *blockingCtx) decisionRecords() []DecisionRecord { return nil }
func (b *blockingCtx) siteStatus() SiteStatus {
	return SiteStatus{SiteSnapshot: SiteSnapshot{Name: "blocking"}}
}

func TestCloseWaitsForInFlightAnalysis(t *testing.T) {
	e := NewEngineManual(Config{WindowSize: 10})
	b := &blockingCtx{entered: make(chan struct{}), release: make(chan struct{})}
	e.register(b)

	analyzeDone := make(chan struct{})
	go func() {
		e.AnalyzeNow()
		close(analyzeDone)
	}()
	<-b.entered

	closeDone := make(chan struct{})
	go func() {
		e.Close()
		close(closeDone)
	}()
	select {
	case <-closeDone:
		t.Fatal("Close returned while an analysis pass was in flight")
	case <-time.After(20 * time.Millisecond):
	}

	close(b.release)
	select {
	case <-closeDone:
	case <-time.After(time.Second):
		t.Fatal("Close did not return after the analysis pass drained")
	}
	<-analyzeDone
}

func TestConfigClampEvents(t *testing.T) {
	col := obs.NewCollector()
	e := NewEngineManual(Config{
		Name:            "clamped",
		FinishedRatio:   1.5,
		CooldownWindows: -2,
		Sink:            col,
	})
	defer e.Close()

	if got := e.Config().FinishedRatio; got != 1 {
		t.Errorf("FinishedRatio = %v, want clamped to 1", got)
	}
	if got := e.Config().CooldownWindows; got != 0 {
		t.Errorf("CooldownWindows = %v, want clamped to 0", got)
	}
	if got := e.Metrics().ConfigClamps.Load(); got != 2 {
		t.Errorf("ConfigClamps = %d, want 2", got)
	}
	want := map[string]obs.ConfigClamped{
		"FinishedRatio":   {Engine: "clamped", Field: "FinishedRatio", From: 1.5, To: 1},
		"CooldownWindows": {Engine: "clamped", Field: "CooldownWindows", From: -2, To: 0},
	}
	seen := 0
	for _, ev := range col.Events() {
		cl, ok := ev.(obs.ConfigClamped)
		if !ok {
			continue
		}
		seen++
		if w, known := want[cl.Field]; !known || cl != w {
			t.Errorf("unexpected clamp event %+v", cl)
		}
	}
	if seen != 2 {
		t.Errorf("saw %d ConfigClamped events, want 2", seen)
	}
}

func TestEngineEventFlow(t *testing.T) {
	col := obs.NewCollector()
	e := NewEngineManual(Config{
		WindowSize:      10,
		FinishedRatio:   0.6,
		Rule:            Rtime(),
		CooldownWindows: 1,
		Name:            "flow",
		Sink:            col,
	})
	ctx := NewListContext[int](e, WithName("flow:list"))
	churnLists(ctx, 10, 500, 500)
	e.AnalyzeNow()
	e.Close()

	events := col.Events()
	// The pass must order: registration, round start, transition decision,
	// window close, cooldown, round completion, engine close.
	wantOrder := []obs.Kind{
		obs.KindContextRegistered, obs.KindRoundStarted, obs.KindTransition,
		obs.KindWindowClosed, obs.KindCooldownEntered, obs.KindRoundCompleted,
		obs.KindEngineClosed,
	}
	pos := 0
	for _, k := range eventKinds(events) {
		if pos < len(wantOrder) && k == wantOrder[pos] {
			pos++
		}
	}
	if pos != len(wantOrder) {
		t.Fatalf("event order missing %s; stream: %v", wantOrder[pos], eventKinds(events))
	}

	tr, _ := firstOfKind(events, obs.KindTransition)
	trans := tr.(obs.Transition)
	if trans.From != "list/array" || trans.To != "list/hasharray" || trans.Round != 0 {
		t.Errorf("transition = %+v, want list/array -> list/hasharray at round 0", trans)
	}
	if len(trans.Ratios) == 0 {
		t.Error("transition carries no TC_D ratios")
	}

	wc, _ := firstOfKind(events, obs.KindWindowClosed)
	closed := wc.(obs.WindowClosed)
	if closed.Round != 1 || closed.Variant != "list/hasharray" || closed.WindowSize != 10 {
		t.Errorf("window closed = %+v", closed)
	}
	if closed.FinishedRatio < 0.6 || closed.FinishedRatio > 1 {
		t.Errorf("finished ratio %v outside [0.6, 1]", closed.FinishedRatio)
	}

	cd, _ := firstOfKind(events, obs.KindCooldownEntered)
	if got := cd.(obs.CooldownEntered).SkipNext; got != 10 {
		t.Errorf("cooldown skip = %d, want 10 (1 window x size 10)", got)
	}

	rc, _ := firstOfKind(events, obs.KindRoundCompleted)
	completed := rc.(obs.RoundCompleted)
	if completed.DurationNs <= 0 || len(completed.Contexts) != 1 {
		t.Errorf("round completed = %+v", completed)
	}
	if stat := completed.Contexts[0]; stat.Context != "flow:list" || stat.Round != 1 {
		t.Errorf("window stat = %+v, want flow:list after round 1", stat)
	}

	ec, _ := firstOfKind(events, obs.KindEngineClosed)
	if closedEv := ec.(obs.EngineClosed); closedEv.Contexts != 1 || closedEv.Rounds != 1 || closedEv.Transitions != 1 {
		t.Errorf("engine closed = %+v", closedEv)
	}
}

func TestMetricsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	e := NewEngineManual(Config{
		WindowSize:      10,
		FinishedRatio:   0.6,
		Rule:            Rtime(),
		CooldownWindows: 1,
		Name:            "metrics",
		Metrics:         reg,
	})
	defer e.Close()
	ctx := NewListContext[int](e, WithName("m:list"))
	// 10 monitored creations fill the window; 5 more land in the cooldown
	// after analysis.
	churnLists(ctx, 10, 200, 200)
	e.AnalyzeNow()
	churnLists(ctx, 5, 10, 0)

	if got := reg.InstancesCreated.Load(); got != 15 {
		t.Errorf("InstancesCreated = %d, want 15", got)
	}
	if got := reg.InstancesMonitored.Load(); got != 10 {
		t.Errorf("InstancesMonitored = %d, want 10", got)
	}
	if got := reg.MonitoredFraction(); got != 10.0/15.0 {
		t.Errorf("MonitoredFraction = %v, want %v", got, 10.0/15.0)
	}
	if got := reg.ContextsRegistered.Load(); got != 1 {
		t.Errorf("ContextsRegistered = %d, want 1", got)
	}
	if got := reg.AnalysisRounds.Load(); got != 1 {
		t.Errorf("AnalysisRounds = %d, want 1", got)
	}
	if got := reg.AnalysisLatency.Count(); got != 1 {
		t.Errorf("AnalysisLatency.Count = %d, want 1", got)
	}
	if got := reg.WindowsClosed.Load(); got != 1 {
		t.Errorf("WindowsClosed = %d, want 1", got)
	}
	if got := reg.RuleEvaluations.Load(); got != 1 {
		t.Errorf("RuleEvaluations = %d, want 1", got)
	}
	if got := reg.WeakReclaims.Load(); got == 0 {
		t.Error("WeakReclaims = 0, want > 0 after GC reclaimed the window")
	}
	if got := reg.TransitionsTotal(); got != 1 {
		t.Errorf("TransitionsTotal = %d, want 1", got)
	}
	counts := reg.TransitionCounts()
	key := obs.TransitionKey{Context: "m:list", From: "list/array", To: "list/hasharray"}
	if counts[key] != 1 {
		t.Errorf("TransitionCounts = %v, want {%v: 1}", counts, key)
	}
}

// TestSharedRegistryAcrossEngines mirrors the Table 5 sweep: many engines
// aggregate into one registry.
func TestSharedRegistryAcrossEngines(t *testing.T) {
	reg := obs.NewRegistry()
	for i := 0; i < 3; i++ {
		e := NewEngineManual(Config{WindowSize: 5, Metrics: reg})
		ctx := NewListContext[int](e)
		for j := 0; j < 5; j++ {
			ctx.NewList().Add(j)
		}
		e.Close()
	}
	if got := reg.ContextsRegistered.Load(); got != 3 {
		t.Errorf("ContextsRegistered = %d, want 3", got)
	}
	if got := reg.InstancesCreated.Load(); got != 15 {
		t.Errorf("InstancesCreated = %d, want 15", got)
	}
}

func TestMetricsRegistryRaceClean(t *testing.T) {
	reg := obs.NewRegistry()
	e := NewEngineManual(Config{WindowSize: 20, Rule: Rtime(), Metrics: reg})
	defer e.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := NewListContext[int](e)
			for i := 0; i < 200; i++ {
				l := ctx.NewList()
				l.Add(i)
				l.Contains(i)
				if i%50 == 0 {
					runtime.GC()
					e.AnalyzeNow()
				}
				reg.IncTransition("race", "a", "b")
				reg.AnalysisLatency.Observe(float64(i) * 1e-6)
				_ = reg.MonitoredFraction()
				_ = reg.TransitionCounts()
			}
		}(g)
	}
	wg.Wait()
	if got := reg.TransitionCounts()[obs.TransitionKey{Context: "race", From: "a", To: "b"}]; got != 800 {
		t.Errorf("race transition count = %d, want 800", got)
	}
}

// TestFlightRecorderTimelineSpansEachPass pins that pass events reach the
// sink when they happen: RoundStarted is stamped before the pass runs and
// RoundCompleted after it, so the recorder's timeline spans at least the
// pass duration the engine itself measured.
func TestFlightRecorderTimelineSpansEachPass(t *testing.T) {
	rec := obs.NewFlightRecorder(256)
	e := NewEngineManual(Config{WindowSize: 10, Rule: Rtime(), Name: "timeline", Sink: rec})
	defer e.Close()
	ctxs := []*ListContext[int]{
		NewListContext[int](e, WithName("timeline:a")),
		NewListContext[int](e, WithName("timeline:b")),
		NewListContext[int](e, WithName("timeline:c")),
	}
	const passes = 3
	for p := 0; p < passes; p++ {
		for _, ctx := range ctxs {
			churnLists(ctx, 10, 100, 100)
		}
		e.AnalyzeNow()
	}

	started := map[int]time.Time{}
	completed := 0
	for _, te := range rec.Snapshot() {
		switch ev := te.Event.(type) {
		case obs.RoundStarted:
			started[ev.Round] = te.When
		case obs.RoundCompleted:
			completed++
			begin, ok := started[ev.Round]
			if !ok {
				t.Fatalf("round %d completed without a recorded start", ev.Round)
			}
			if span := te.When.Sub(begin); span < time.Duration(ev.DurationNs) {
				t.Errorf("round %d: recorder span %v shorter than pass duration %v",
					ev.Round, span, time.Duration(ev.DurationNs))
			}
		}
	}
	if completed != passes {
		t.Fatalf("recorded %d RoundCompleted events, want %d", completed, passes)
	}
}

// TestParallelAnalysisDeliversEveryEvent drives analysis workers that call
// the sink concurrently and checks that every sink of a Multi saw the same
// events: the collector's per-kind counts, the registry's events_total
// counters, the flight recorder's total and the Logf line count all agree,
// and every closed window produced exactly one WindowClosed event. The Logf
// callback appends without a lock: the race detector flags it unless the
// adapter serializes calls.
func TestParallelAnalysisDeliversEveryEvent(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewFlightRecorder(16) // small, so eviction runs concurrently too
	col := obs.NewCollector()
	var lines []string
	e := NewEngineManual(Config{
		WindowSize:          10,
		Rule:                Rtime(),
		AnalysisParallelism: 4,
		AnalysisSpans:       true,
		Name:                "parallel",
		Sink:                obs.Multi(rec, col, obs.CountingSink(reg)),
		Metrics:             reg,
		Logf: func(format string, args ...any) {
			lines = append(lines, fmt.Sprintf(format, args...))
		},
	})
	ctxs := make([]*ListContext[int], 8)
	for i := range ctxs {
		ctxs[i] = NewListContext[int](e, WithName(fmt.Sprintf("parallel:%d", i)))
	}
	for p := 0; p < 4; p++ {
		for i, ctx := range ctxs {
			// Alternate lookup-heavy and insert-only sites so some
			// contexts transition and others stay put.
			for n := 0; n < 10; n++ {
				l := ctx.NewList()
				for j := 0; j < 50; j++ {
					l.Add(j)
				}
				for j := 0; i%2 == 0 && j < 200; j++ {
					l.Contains(j % 51)
				}
			}
		}
		runtime.GC()
		e.AnalyzeNow()
	}
	e.Close()

	byKind := map[obs.Kind]int64{}
	for _, ev := range col.Events() {
		byKind[ev.EventKind()]++
	}
	if got := reg.EventCounts(); !reflect.DeepEqual(got, byKind) {
		t.Errorf("registry events_total = %v, collector saw %v", got, byKind)
	}
	if got, want := rec.Total(), int64(len(col.Events())); got != want {
		t.Errorf("flight recorder total = %d, collector saw %d", got, want)
	}
	if got, want := len(lines), len(col.Events()); got != want {
		t.Errorf("Logf lines = %d, collector saw %d", got, want)
	}
	if got, want := byKind[obs.KindWindowClosed], reg.WindowsClosed.Load(); got != want || want == 0 {
		t.Errorf("WindowClosed events = %d, WindowsClosed counter = %d (want equal, nonzero)", got, want)
	}
	if got := byKind[obs.KindContextAnalyzed]; got != 4*int64(len(ctxs)) {
		t.Errorf("ContextAnalyzed events = %d, want %d", got, 4*len(ctxs))
	}
}
