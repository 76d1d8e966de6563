package core

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"repro/internal/collections"
	"repro/internal/obs"
	"repro/internal/perfmodel"
)

// This file implements the adaptive allocation context of Section 4.3 once,
// generically, for all abstractions. A siteCore is parameterized by the
// collection interface C (List[T], Set[T], Map[K,V], ...) and the concrete
// monitor type M whose pointer implements C; the per-abstraction wrappers in
// context.go contribute only the monitor-wrapping functions and the adaptive
// transition threshold. Everything else — factories, the monitored window,
// incremental cost aggregation, round/cooldown state, analysis — lives here
// exactly once.
//
// Creation fast path. The common case at a hot allocation site is that the
// context is NOT currently filling a window: it is either in its post-round
// cooldown or waiting with a full window for the finished ratio. The paper's
// design says monitoring must cost ~nothing in that state, so the fast path
// is lock-free: a single atomic state word encodes
//
//	state > 0                cooldown; CAS-decrement and hand out an
//	                         unmonitored instance
//	state == stateOpen (0)   window open; take the mutex and monitor
//	state == stateWindowFull window full, awaiting analysis; hand out an
//	                         unmonitored instance without any write
//
// and the current variant's factory is published through an atomic pointer.
// The fast path performs no allocation beyond the collection itself (asserted
// by TestFastPathAllocsOnlyCollection and guarded by BenchmarkNewParallel).
//
// Epoch-based window lifecycle. Each monitoring round's records live in
// their own epoch window (epochWin), published through an atomic pointer.
// Creations that join the window synchronize only on the epoch's own tiny
// append lock — never on c.mu, which has become an analyze-side lock — so
// window accounting on the record path no longer contends with folding,
// decision evaluation, explain reads or snapshot captures. Closing a round
// advances the epoch: analyze seals the old window, drains it (every record
// folded exactly once — the aggregate equals the historical shared-counter
// totals), recycles the profiles of finished instances, and installs a fresh
// epoch *before* reopening the creation gate, so a creator that observes the
// open state always observes the new epoch too. The grace the drain extends
// to in-flight recorders is the weak reference: a profile is only recycled
// once the GC has proven its monitor unreachable, which no live operation
// can survive (monitor methods pin the monitor past their last profile
// write — see monitor.go).
const (
	stateOpen       int64 = 0  // window accepting monitored instances
	stateWindowFull int64 = -1 // window full, waiting for the finished ratio
)

// siteRecord tracks one monitored instance: a weak pointer to the monitor
// (so the context never keeps the collection alive — the paper's
// WeakReference technique) and a strong pointer to its profile.
type siteRecord[M any] struct {
	ref    weak.Pointer[M]
	p      *profile
	folded bool
}

// epochWin holds one monitoring round's records. Creators append under the
// epoch's own mutex (held for a capacity check and a slice append — a few
// nanoseconds); the analyzer snapshots the slice header under the same
// mutex, then folds outside it, so recorders and the fold never contend.
// Existing elements of records are never moved or rewritten, which makes a
// snapshotted prefix safe to walk lock-free.
type epochWin[M any] struct {
	mu      sync.Mutex
	records []*siteRecord[M]
	// sealed is set by analyze when the epoch retires; a creator that raced
	// the close bounces to an unmonitored instance instead of appending to a
	// window that will never be drained.
	sealed bool
	// fill mirrors len(records) for lock-free stats reads.
	fill atomic.Int64
}

// newEpochWin sizes the record slice for the configured window, capped so a
// huge WindowSize (benchmarks use 1<<31 to mean "never closes") does not
// pre-allocate a huge array.
func newEpochWin[M any](windowSize int) *epochWin[M] {
	c := windowSize
	if c > 1024 {
		c = 1024
	}
	return &epochWin[M]{records: make([]*siteRecord[M], 0, c)}
}

// snapshot returns a prefix-consistent view of the epoch's records: every
// record folded by an earlier analysis pass is in it (folds only happen to
// previously snapshotted prefixes), records appended later are simply not
// seen until the next pass.
func (w *epochWin[M]) snapshot() []*siteRecord[M] {
	w.mu.Lock()
	recs := w.records
	w.mu.Unlock()
	return recs
}

// curVariant is the atomically published "current variant" of a context:
// the fast path loads it with a single pointer read.
type curVariant[C any] struct {
	id      collections.VariantID
	factory func(int) C
}

// siteCore is the shared engine-facing core of an allocation context.
type siteCore[C any, M any] struct {
	e    *Engine
	name string // final after Engine.register (duplicate disambiguation)

	// Immutable after construction.
	abstraction string                                // "list", "set", "map"
	factories   map[collections.VariantID]func(int) C //
	wrap        func(C, *profile) (*M, C)             // wrap in a fresh monitor: its pointer and its C view
	threshold   int64                                 // adaptive-variant transition threshold

	// state is the lock-free creation gate (see the file comment).
	state atomic.Int64
	// cur is the variant future instantiations use, swapped at window close.
	cur atomic.Pointer[curVariant[C]]
	// win is the current epoch window. Creators load it and append under the
	// epoch's own lock; analyze retires it and installs the next epoch at
	// window close. Never accessed through c.mu.
	win atomic.Pointer[epochWin[M]]

	// mu is the analyze-side lock: it guards agg, round, missingWarned, the
	// ring and the workload profiles, and serializes analysis with the
	// snapshot/status/explain readers. The record path never takes it.
	mu    sync.Mutex
	agg   *costAgg
	round int
	// ring is the bounded decision-record history served by Engine.Explain;
	// nil when Config.DecisionRing disabled recording. Written only by
	// analyze (under mu), so the creation fast path never touches it.
	ring *decisionRing

	// candidates is the factory-filtered candidate pool. The per-window
	// aggregate is built from the subset the active models fully cover
	// (see buildAgg); keeping the full list here lets a model hot-swap
	// restore candidates an earlier model set was missing curves for.
	candidates []collections.VariantID
	// missingWarned dedupes ModelMissing warnings: one per (context,
	// variant) per model set (warnedFor tracks which set it applies to).
	missingWarned map[collections.VariantID]bool
	warnedFor     *perfmodel.Models

	// Workload-shape accounting for warm start and calibration (guarded by
	// mu). winProf aggregates the current window's folded workloads and is
	// reset at each window close; siteProf aggregates over the context's
	// lifetime. Both are fed exactly where a record's folded flag flips to
	// true — the model-swap re-fold path must not double-count an instance.
	winProf  WorkloadProfile
	siteProf WorkloadProfile
	// warm marks a context restored from a WarmStarter: rule evaluation is
	// skipped while the observed window profile stays within DriftThreshold
	// of warmProf (the profile the persisted decision was made under).
	warm     bool
	warmProf WorkloadProfile
}

// init populates a zero siteCore in place (it contains atomics and a mutex,
// so it must never be copied after first use).
func (c *siteCore[C, M]) init(e *Engine, o ctxOptions, abstraction string, factories map[collections.VariantID]func(int) C,
	wrap func(C, *profile) (*M, C), threshold int64) {
	c.e = e
	c.name = o.name
	c.abstraction = abstraction
	c.factories = factories
	c.wrap = wrap
	c.threshold = threshold
	c.candidates = filterKnown(o.candidates, factories)
	c.missingWarned = make(map[collections.VariantID]bool)
	c.ring = newDecisionRing(e.cfg.DecisionRing)
	c.agg = c.buildAgg()
	c.win.Store(newEpochWin[M](e.cfg.WindowSize))
	c.cur.Store(&curVariant[C]{id: o.defaultVar, factory: factories[o.defaultVar]})
}

// buildAgg constructs the cost aggregate for the next monitoring window
// against the engine's active models: candidates lacking a curve for any
// (op × rule-dimension) cell the fold will evaluate are skipped — ranking a
// partially modeled candidate against fully modeled ones would mis-rank it
// (and panic in Models.Cost) — and the first gap is reported once per
// (context, variant) per model set through an obs.ModelMissing warning.
func (c *siteCore[C, M]) buildAgg() *costAgg {
	models := c.e.models.Load()
	if models != c.warnedFor {
		c.warnedFor = models
		clear(c.missingWarned)
	}
	usable := make([]collections.VariantID, 0, len(c.candidates))
	for _, v := range c.candidates {
		op, dim, missing := models.MissingCurve(v, c.e.ruleDims)
		if !missing {
			usable = append(usable, v)
			continue
		}
		if !c.missingWarned[v] {
			c.missingWarned[v] = true
			c.e.metrics.ModelGaps.Add(1)
			if c.e.sink != nil {
				c.e.sink.Emit(obs.ModelMissing{
					Engine:    c.e.cfg.Name,
					Context:   c.name,
					Variant:   string(v),
					Op:        string(op),
					Dimension: string(dim),
				})
			}
		}
	}
	agg := newCostAggDims(models, usable, c.e.ruleDims)
	agg.setConfidence(c.e.confZ)
	return agg
}

// newCollection returns a collection of the context's current variant. The
// first WindowSize instances of each monitoring round are wrapped in
// monitors; cooldown and window-full creations take the lock-free fast path.
func (c *siteCore[C, M]) newCollection() C {
	c.e.metrics.InstancesCreated.Add(1)
	for {
		s := c.state.Load()
		if s == stateWindowFull {
			return c.cur.Load().factory(0)
		}
		if s > 0 {
			if c.state.CompareAndSwap(s, s-1) {
				return c.cur.Load().factory(0)
			}
			continue // lost a cooldown slot to a concurrent creator; retry
		}
		return c.newMonitored()
	}
}

// newMonitored is the monitored-creation path: the window looked open, so
// the creation tries to join the current epoch. It synchronizes only on the
// epoch's append lock — never on c.mu — so joining the window cannot contend
// with an in-flight analysis pass. Capacity is re-checked under that lock: a
// concurrent creator may have filled the window (or a concurrent analyze
// sealed it) between the fast-path gate load and here, in which case the
// creation bounces to an unmonitored instance and republishes the gate. A
// creator racing an epoch advance can land its record in the *new* epoch
// while the gate still reads as cooldown — a benign oversample by one (the
// record simply joins the next round's window); at AnalysisParallelism 1
// with single-threaded creation the race cannot occur, which is what keeps
// the Table 6 trace byte-identical.
func (c *siteCore[C, M]) newMonitored() C {
	inner := c.cur.Load().factory(0)
	p := newProfile()
	m, mc := c.wrap(inner, p)
	rec := &siteRecord[M]{ref: weak.Make(m), p: p}
	w := c.win.Load()
	w.mu.Lock()
	if w.sealed || len(w.records) >= c.e.cfg.WindowSize {
		w.mu.Unlock()
		c.state.CompareAndSwap(stateOpen, stateWindowFull)
		// The monitor never escapes, so no operation can ever reach p.
		p.release()
		return inner
	}
	w.records = append(w.records, rec)
	n := len(w.records)
	w.fill.Store(int64(n))
	w.mu.Unlock()
	c.e.metrics.InstancesMonitored.Add(1)
	if n == c.e.cfg.WindowSize {
		c.state.CompareAndSwap(stateOpen, stateWindowFull)
	}
	return mc
}

// currentVariant returns the variant future instantiations will use.
func (c *siteCore[C, M]) currentVariant() collections.VariantID {
	return c.cur.Load().id
}

// completedRounds returns the number of completed analysis rounds.
func (c *siteCore[C, M]) completedRounds() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.round
}

func (c *siteCore[C, M]) contextName() string { return c.name }

// rename is called by Engine.register (before the context is published to
// the analysis schedule) to disambiguate duplicate site labels.
func (c *siteCore[C, M]) rename(name string) { c.name = name }

// cooldownRemaining projects the state word onto the legacy cooldown count.
func (c *siteCore[C, M]) cooldownRemaining() int {
	if s := c.state.Load(); s > 0 {
		return int(s)
	}
	return 0
}

func (c *siteCore[C, M]) windowStats() obs.ContextWindowStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	return obs.ContextWindowStat{
		Context: c.name, Variant: string(c.currentVariant()), Round: c.round,
		WindowFill: int(c.win.Load().fill.Load()), Folded: c.agg.folded, Cooldown: c.cooldownRemaining(),
	}
}

// analyze folds finished instances and, when the window is complete and the
// finished ratio reached, applies the selection rule (Sections 3.1, 4.3).
// It holds only c.mu (the analyze-side lock); the epoch window is read
// through a prefix-consistent snapshot, so live recorders and creators never
// wait on this pass.
func (c *siteCore[C, M]) analyze() {
	c.mu.Lock()
	defer c.mu.Unlock()
	win := c.win.Load()
	recs := win.snapshot()
	if c.e.models.Load() != c.agg.models {
		// Models were hot-swapped mid-window. The per-instance workload
		// snapshots are still held by the window records, so rebuild the
		// aggregate against the new models and re-fold what was already
		// folded — the swap then governs this window's decision, not just
		// the next one's.
		fresh := c.buildAgg()
		for _, r := range recs {
			if r.folded {
				fresh.fold(r.p.snapshot())
			}
		}
		c.agg = fresh
	}
	reclaimed := 0
	for _, r := range recs {
		if !r.folded && r.ref.Value() == nil {
			w := r.p.snapshot()
			c.agg.fold(w)
			c.winProf.observe(w)
			c.siteProf.observe(w)
			r.folded = true
			reclaimed++
		}
	}
	if reclaimed > 0 {
		c.e.metrics.WeakReclaims.Add(int64(reclaimed))
	}
	// Waiting passes record *why* no decision could fire; consecutive
	// identical reasons are folded by the ring (Repeats), so a site idling
	// in a long cooldown does not flush its decision history.
	recording := c.ring != nil
	if len(recs) < c.e.cfg.WindowSize {
		if recording {
			if s := c.state.Load(); s > 0 {
				c.ring.push(DecisionRecord{
					When: time.Now(), Round: c.round, Variant: c.cur.Load().id,
					Outcome: OutcomeCooldown, Cooldown: int(s),
				})
			} else {
				c.ring.push(DecisionRecord{
					When: time.Now(), Round: c.round, Variant: c.cur.Load().id,
					Outcome: OutcomeWindowFilling, WindowFill: len(recs), Folded: c.agg.folded,
				})
			}
		}
		return
	}
	if c.agg.folded < neededFolds(c.e.cfg) {
		if recording {
			c.ring.push(DecisionRecord{
				When: time.Now(), Round: c.round, Variant: c.cur.Load().id,
				Outcome: OutcomeAwaitingFinished, WindowFill: len(recs),
				Folded: c.agg.folded, NeededFolds: neededFolds(c.e.cfg),
			})
		}
		return
	}
	// Decision time: use the whole set of metrics, including instances
	// still alive (the paper folds all collected metrics; the finished
	// ratio only gates when the analysis may run).
	finished := c.agg.folded
	for _, r := range recs {
		if !r.folded {
			w := r.p.snapshot()
			c.agg.fold(w)
			c.winProf.observe(w)
			c.siteProf.observe(w)
			r.folded = true
		}
	}
	// A warm-started context holds its restored variant without evaluating
	// the rule — until the window's observed profile drifts past the
	// configured threshold from the profile the persisted decision was made
	// under. Crossing it sheds the warm state permanently: from this window
	// on the context selects like any cold one.
	skipRule := false
	var warmDrift float64
	if c.warm {
		if drift := Drift(c.warmProf, c.winProf); drift <= c.e.cfg.DriftThreshold {
			skipRule = true
			warmDrift = drift
		} else {
			c.warm = false
			c.e.metrics.DriftReopens.Add(1)
			if c.e.sink != nil {
				c.e.sink.Emit(obs.CalibrationDrift{
					Engine:    c.e.cfg.Name,
					Context:   c.name,
					Drift:     drift,
					Threshold: c.e.cfg.DriftThreshold,
				})
			}
		}
	}
	cooldown := int(c.e.cfg.CooldownWindows * float64(c.e.cfg.WindowSize))
	cur := c.cur.Load()
	var gaps []collections.VariantID
	if recording {
		gaps = c.modelGaps()
	}
	next, rec := c.e.closeWindow(windowClose{
		name: c.name, agg: c.agg, current: cur.id, round: c.round,
		threshold: c.threshold, finished: finished, cooldown: cooldown,
		skipRule: skipRule, drift: warmDrift,
		record: recording, modelGaps: gaps,
	})
	if rec != nil {
		c.ring.push(*rec)
	}
	if next != cur.id {
		c.cur.Store(&curVariant[C]{id: next, factory: c.factories[next]})
	}
	// Advance the epoch: seal the retired window (a creator that raced the
	// close bounces instead of joining a window nobody will drain), recycle
	// the profiles whose monitors the GC already proved unreachable, and
	// install the next epoch *before* reopening the gate — a creator that
	// observes the reopened state therefore always observes the new epoch.
	win.mu.Lock()
	win.sealed = true
	win.mu.Unlock()
	for _, r := range recs {
		if r.ref.Value() == nil {
			r.p.release()
			r.p = nil
		}
	}
	c.win.Store(newEpochWin[M](c.e.cfg.WindowSize))
	c.agg = c.buildAgg()
	c.winProf = WorkloadProfile{}
	c.round++
	c.state.Store(int64(cooldown)) // 0 reopens the window immediately
}

// warmStart restores a persisted site decision before the context joins the
// analysis schedule. It refuses (false) a variant outside the candidate pool
// — a stale store must never strand a site on a variant the selection rule
// cannot reason about.
func (c *siteCore[C, M]) warmStart(dec WarmDecision) bool {
	f, ok := c.factories[dec.Variant]
	if !ok {
		return false
	}
	inPool := false
	for _, v := range c.candidates {
		if v == dec.Variant {
			inPool = true
			break
		}
	}
	if !inPool {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cur.Store(&curVariant[C]{id: dec.Variant, factory: f})
	c.warm = true
	c.warmProf = dec.Profile
	return true
}

// modelGaps lists the candidates the current window aggregate had to exclude
// because the active models lack curves for them (explain data; caller holds
// c.mu).
func (c *siteCore[C, M]) modelGaps() []collections.VariantID {
	if len(c.agg.candidates) == len(c.candidates) {
		return nil
	}
	in := make(map[collections.VariantID]bool, len(c.agg.candidates))
	for _, v := range c.agg.candidates {
		in[v] = true
	}
	gaps := make([]collections.VariantID, 0, len(c.candidates)-len(c.agg.candidates))
	for _, v := range c.candidates {
		if !in[v] {
			gaps = append(gaps, v)
		}
	}
	return gaps
}

// decisionRecords returns the explain ring, oldest first.
func (c *siteCore[C, M]) decisionRecords() []DecisionRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.records()
}

// siteStatus extends siteSnapshot with the live window/cooldown counters and
// the last decision outcome, all captured under one lock — the /sites view
// of the diag server.
func (c *siteCore[C, M]) siteStatus() SiteStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := SiteStatus{
		SiteSnapshot: c.snapshotLocked(),
		WindowFill:   int(c.win.Load().fill.Load()),
		Folded:       c.agg.folded,
		Cooldown:     c.cooldownRemaining(),
	}
	if recs := c.ring.records(); len(recs) > 0 {
		st.LastOutcome = recs[len(recs)-1].Outcome
	}
	return st
}

// siteSnapshot captures the context's externally visible state for the
// warm-start store and the tuner's benchmark planning. A warm context that
// has not yet observed a window of its own reports the persisted profile, so
// short runs never erode a previously learned workload shape.
func (c *siteCore[C, M]) siteSnapshot() SiteSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshotLocked()
}

func (c *siteCore[C, M]) snapshotLocked() SiteSnapshot {
	prof := c.siteProf
	if prof.Instances == 0 && c.warm {
		prof = c.warmProf
	}
	cands := make([]collections.VariantID, len(c.candidates))
	copy(cands, c.candidates)
	return SiteSnapshot{
		Name:        c.name,
		Abstraction: c.abstraction,
		Variant:     c.cur.Load().id,
		Candidates:  cands,
		Rounds:      c.round,
		Warm:        c.warm,
		Profile:     prof,
	}
}

// neededFolds converts the finished ratio into an instance count.
func neededFolds(cfg Config) int {
	return int(math.Ceil(cfg.FinishedRatio * float64(cfg.WindowSize)))
}

// filterKnown drops candidate IDs that have no factory (e.g. a map variant
// ID passed to a list context).
func filterKnown[F any](ids []collections.VariantID, factories map[collections.VariantID]F) []collections.VariantID {
	out := make([]collections.VariantID, 0, len(ids))
	for _, id := range ids {
		if _, ok := factories[id]; ok {
			out = append(out, id)
		}
	}
	return out
}
