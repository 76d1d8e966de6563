package tuner

import (
	"context"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collections"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perfmodel"
)

// Config parametrizes a Tuner. Engine is required; everything else has
// usable defaults.
type Config struct {
	// Engine is the engine whose contexts are calibrated and whose models
	// are refined. Required.
	Engine *core.Engine
	// Store, when non-nil, receives the refined models and per-site
	// decisions at the end of every calibration cycle (Store.Save).
	Store *Store
	// Budget caps the tuner's shadow-benchmark wall-clock as a fraction of
	// the time elapsed since the tuner was created: at any moment,
	// shadow time ≤ Budget × elapsed. Zero uses the default (0.02, i.e.
	// 2% of one core); values ≥ 1 effectively disable the cap.
	Budget float64
	// Interval is the background calibration period (Start only). Zero
	// uses the default (1s).
	Interval time.Duration
	// MaxCellTime bounds one shadow cell (a variant measured at one size).
	// Zero uses the default (5ms).
	MaxCellTime time.Duration
	// Sink and Metrics receive the tuner's calibration/store telemetry.
	// Nil Metrics gets a private registry; pass the engine's to aggregate.
	Sink    obs.Sink
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Budget <= 0 {
		c.Budget = 0.02
	}
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.MaxCellTime <= 0 {
		c.MaxCellTime = 5 * time.Millisecond
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	return c
}

// Tuner runs online calibration against one engine: it plans shadow cells
// from the sites' observed workload shapes, measures them under the
// duty-cycle budget, folds the measurements into the engine's models, and
// persists the refined state. All benchmarking happens on the caller's (or
// the background loop's) goroutine — the engine's allocation fast path is
// never touched.
type Tuner struct {
	cfg     Config
	created time.Time
	// shadowNs is the lifetime wall-clock spent inside shadow cells.
	shadowNs atomic.Int64
	paused   atomic.Bool

	mu sync.Mutex
	// measured dedupes cells across cycles: a (variant, size) cell is
	// benchmarked once per process — workloads revisit the same sizes, and
	// re-measuring them would burn budget without new information.
	measured map[shadowCell]bool
	// points accumulates every measurement, so each swap overlays the full
	// evidence onto a fresh clone of the engine's active models.
	points map[pointKey][]perfmodel.MeasuredPoint

	background bool
	stop       chan struct{}
	done       chan struct{}
}

// pointKey addresses one measured curve.
type pointKey struct {
	ID  collections.VariantID
	Op  perfmodel.Op
	Dim perfmodel.Dimension
}

// New returns a Tuner without a background goroutine; calibration runs only
// when RunOnce is called. Tests and single-shot demos use this.
func New(cfg Config) *Tuner {
	if cfg.Engine == nil {
		panic("tuner: Config.Engine is required")
	}
	return &Tuner{
		cfg:      cfg.withDefaults(),
		created:  time.Now(),
		measured: make(map[shadowCell]bool),
		points:   make(map[pointKey][]perfmodel.MeasuredPoint),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start returns a Tuner running calibration cycles every Config.Interval on
// a background goroutine. Call Close to stop it.
func Start(cfg Config) *Tuner {
	t := New(cfg)
	t.background = true
	go t.loop()
	return t
}

func (t *Tuner) loop() {
	defer close(t.done)
	ticker := time.NewTicker(t.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-ticker.C:
			t.RunOnce()
		}
	}
}

// Pause suspends calibration: background cycles and RunOnce become no-ops
// until Resume. The budget clock keeps running, so a paused tuner accrues
// headroom rather than debt.
func (t *Tuner) Pause() { t.paused.Store(true) }

// Resume re-enables calibration after Pause.
func (t *Tuner) Resume() { t.paused.Store(false) }

// Close stops the background loop (if any). Idempotent via the paused flag:
// a closed tuner still accepts RunOnce calls, which simply no-op.
func (t *Tuner) Close() {
	t.Pause()
	if t.background {
		t.background = false
		close(t.stop)
		<-t.done
	}
}

// ShadowFraction reports the fraction of the tuner's lifetime spent inside
// shadow benchmarks — the quantity Config.Budget bounds.
func (t *Tuner) ShadowFraction() float64 {
	elapsed := time.Since(t.created).Nanoseconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(t.shadowNs.Load()) / float64(elapsed)
}

// allow reports whether one more cell fits the budget right now. The check
// is pre-emptive — it reserves the cell's worst case before starting it —
// so the budget invariant (shadow ≤ Budget × elapsed) holds at every
// instant, not just on average.
func (t *Tuner) allow() bool {
	if t.cfg.Budget >= 1 {
		return true
	}
	elapsed := float64(time.Since(t.created).Nanoseconds())
	reserve := float64(2 * t.cfg.MaxCellTime.Nanoseconds())
	return float64(t.shadowNs.Load())+reserve <= t.cfg.Budget*elapsed
}

// RunOnce executes one calibration cycle: plan cells from the engine's site
// snapshots, measure what the budget allows, fold new measurements into the
// models, hot-swap them into the engine, and persist to the store. It
// returns the number of cells measured this cycle.
func (t *Tuner) RunOnce() int {
	if t.paused.Load() {
		return 0
	}
	snaps := t.cfg.Engine.SiteSnapshots()
	cells, sites := t.plan(snaps)
	t.cfg.Metrics.CalibrationRuns.Add(1)
	if t.cfg.Sink != nil {
		t.cfg.Sink.Emit(obs.CalibrationStarted{
			Engine: t.cfg.Engine.Config().Name, Sites: sites, Cells: len(cells),
		})
	}
	var cycleShadow int64
	fresh := 0
	// The shadow cells run under a pprof label so CPU profiles attribute
	// benchmark time to the framework, not the host workload, and the spent
	// wall-clock is credited to the registry's self-overhead counter — the
	// same ledger the engine's analysis passes feed.
	pprof.Do(context.Background(), pprof.Labels("collectionswitch", "tuner-shadow"), func(context.Context) {
		for _, c := range cells {
			if !t.allow() {
				break
			}
			target, ok := collections.BenchTargetFor(c.ID)
			if !ok || target.Adapter == nil {
				continue
			}
			start := time.Now()
			cell := perfmodel.MeasureCell(target.Adapter, c.Size, 0, seBatches, start.Add(t.cfg.MaxCellTime))
			spent := time.Since(start).Nanoseconds()
			t.shadowNs.Add(spent)
			cycleShadow += spent
			if len(cell.Ops) == 0 {
				continue
			}
			t.mu.Lock()
			t.measured[c] = true
			size := float64(c.Size)
			for op, s := range cell.Ops {
				k := pointKey{c.ID, op, perfmodel.DimTimeNS}
				t.points[k] = append(t.points[k], perfmodel.MeasuredPoint{Size: size, Value: s.NS, SE: s.SE})
			}
			if cell.FootprintOK {
				// The cost fold charges footprint through the populate curve.
				k := pointKey{c.ID, perfmodel.OpPopulate, perfmodel.DimFootprint}
				t.points[k] = append(t.points[k], perfmodel.MeasuredPoint{Size: size, Value: cell.Footprint})
			}
			t.mu.Unlock()
			fresh++
			t.cfg.Metrics.CalibrationCells.Add(1)
		}
	})
	t.cfg.Metrics.SelfOverheadNs.Add(cycleShadow)
	swapped := false
	if fresh > 0 {
		models := t.refinedModels()
		t.cfg.Engine.SetModels(models)
		if t.cfg.Store != nil {
			t.cfg.Store.SetModels(models)
		}
		swapped = true
	}
	if t.cfg.Store != nil {
		t.cfg.Store.RecordSites(snaps)
		if err := t.cfg.Store.Save(); err != nil && t.cfg.Engine.Config().Logf != nil {
			t.cfg.Engine.Config().Logf("tuner: store save failed: %v", err)
		}
	}
	if t.cfg.Sink != nil {
		t.cfg.Sink.Emit(obs.CalibrationCompleted{
			Engine:   t.cfg.Engine.Config().Name,
			Measured: fresh, Planned: len(cells),
			ShadowNs: cycleShadow, Swapped: swapped,
		})
	}
	return fresh
}

// refinedModels clones the engine's active models and overlays every
// accumulated measurement: measured points govern the sampled size bands,
// the prior curves survive everywhere else, and the result is stamped with
// this machine's fingerprint.
func (t *Tuner) refinedModels() *perfmodel.Models {
	models := t.cfg.Engine.Models().Clone()
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, pts := range t.points {
		models.OverlayMeasured(k.ID, k.Op, k.Dim, pts)
	}
	models.SetFingerprint(perfmodel.CollectFingerprint())
	return models
}

// plan derives the cycle's cell list from the sites' observed workloads:
// for every site that has folded at least one instance, each candidate
// variant is measured at the site's mean and max observed size (clamped to
// shadowSizeCap). Cells already measured in an earlier cycle are skipped.
// Cells are ranked by model uncertainty, most uncertain first (see below).
// The returned sites count is the number of sites that contributed cells.
func (t *Tuner) plan(snaps []core.SiteSnapshot) ([]shadowCell, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := make(map[shadowCell]bool)
	var cells []shadowCell
	sites := 0
	for _, snap := range snaps {
		if snap.Profile.Instances == 0 {
			continue
		}
		contributed := false
		for _, size := range shadowSizes(snap.Profile) {
			for _, v := range snap.Candidates {
				c := shadowCell{ID: v, Size: size}
				if seen[c] || t.measured[c] {
					continue
				}
				seen[c] = true
				cells = append(cells, c)
				contributed = true
			}
		}
		if contributed {
			sites++
		}
	}
	// Measure where the models are least sure first: cells whose curves are
	// missing or carry no variance (+Inf score), then descending summed
	// prediction SE at the cell's size. If the budget cuts the cycle short,
	// the measurements that shrink the models' confidence intervals most are
	// already in. Equal scores fall back to smallest-size-first, so a fully
	// uncertain plan keeps the historical cheap-cells-first order.
	models := t.cfg.Engine.Models()
	score := make(map[shadowCell]float64, len(cells))
	for _, c := range cells {
		score[c] = cellUncertainty(models, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		si, sj := score[cells[i]], score[cells[j]]
		if si != sj {
			return si > sj
		}
		if cells[i].Size != cells[j].Size {
			return cells[i].Size < cells[j].Size
		}
		return cells[i].ID < cells[j].ID
	})
	return cells, sites
}

// shadowSizes picks the sizes a site's candidates are measured at: the mean
// and the max observed size, deduplicated, floored at 1 and clamped to
// shadowSizeCap.
func shadowSizes(p core.WorkloadProfile) []int {
	mean := int(p.MeanSize + 0.5)
	maxSz := int(p.MaxSize)
	sizes := []int{clampSize(mean)}
	if m := clampSize(maxSz); m != sizes[0] {
		sizes = append(sizes, m)
	}
	return sizes
}

func clampSize(n int) int {
	if n < 1 {
		return 1
	}
	if n > shadowSizeCap {
		return shadowSizeCap
	}
	return n
}
