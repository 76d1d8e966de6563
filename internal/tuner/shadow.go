package tuner

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/collections"
	"repro/internal/perfmodel"
)

// Shadow micro-benchmarks: tiny, deadline-bounded measurements of one
// variant's critical operations at one observed collection size, run on the
// tuner's own goroutine. They trade the statistical rigor of the offline
// model builder (perfmodel.Builder, testing.Benchmark, warm-up phases) for
// bounded cost — each cell is capped by a wall-clock deadline so the
// duty-cycle ledger in tuner.go can enforce its budget pre-emptively.

// shadowSizeCap bounds the collection size a shadow cell will populate.
// Observed max sizes can be arbitrarily large; populating millions of
// elements inside a millisecond-scale deadline would measure nothing but the
// deadline. Sizes above the cap are clamped (the overlay band then refines
// the curve at the cap, and the analytic curve's shape carries beyond it).
const shadowSizeCap = 1 << 15

// batchSliceNs is the target duration of one timed batch: long enough to
// dominate timer overhead, short enough that deadline overshoot stays small.
const batchSliceNs = 200_000 // 200µs

// seBatches is how many trusted (≥ batchSliceNs) batches timeOp tries to
// collect: the spread of their per-call means yields the measurement's
// standard error, which the overlay bands carry into the models' prediction
// intervals. One batch (deadline pressure) means no spread estimate — SE 0.
const seBatches = 3

// shadowCell identifies one (variant, size) measurement unit. All four
// critical operations (and the footprint) are measured together: populate
// has to run anyway to build the instance the other ops probe.
type shadowCell struct {
	ID   collections.VariantID
	Size int
}

// cellPoints is the yield of one measured cell: per-op time points (with
// their sampling standard errors) and an optional footprint point, all at
// the cell's size.
type cellPoints struct {
	timeNs    map[perfmodel.Op]float64
	timeSE    map[perfmodel.Op]float64
	footprint float64
	footOK    bool
}

// cellUncertainty scores a cell by how unsure the active models are about
// it: the summed per-op prediction standard error of the time curves at the
// cell's size, i.e. the kernel's SE of one call of each critical op. A
// missing curve, or one fitted without variance, scores +Inf — nothing is
// known there, so the planner measures it first.
func cellUncertainty(models *perfmodel.Models, c shadowCell) float64 {
	dims := []perfmodel.Dimension{perfmodel.DimTimeNS}
	if _, _, missing := models.MissingCurve(c.ID, dims); missing {
		return math.Inf(1)
	}
	unit := perfmodel.Usage{Populate: 1, Contains: 1, Iterate: 1, Middle: 1}
	_, se, ok := models.WorkloadCostSE(c.ID, perfmodel.DimTimeNS, unit, float64(c.Size))
	if !ok {
		return math.Inf(1)
	}
	return se
}

// shadowKeys mirrors the model builder's key scheme: n distinct shuffled
// keys in [0, 2n) — half the probe domain present — plus 256 probes.
func shadowKeys(n int) (keys, probes []int) {
	r := rand.New(rand.NewSource(int64(n)*2654435761 + 1))
	keys = r.Perm(n * 2)[:n]
	probes = make([]int, 256)
	for i := range probes {
		probes[i] = r.Intn(n * 2)
	}
	return keys, probes
}

// measureCell shadow-benchmarks one cell against its adapter, stopping at
// deadline. It returns whatever was measured before the deadline — possibly
// only the leading operations, possibly nothing (empty timeNs map).
func measureCell(ad collections.BenchAdapter, size int, deadline time.Time) cellPoints {
	out := cellPoints{
		timeNs: make(map[perfmodel.Op]float64),
		timeSE: make(map[perfmodel.Op]float64),
	}
	keys, probes := shadowKeys(size)
	var h collections.BenchHandle
	// Populate is charged per complete population to size (the Table 3
	// convention), so its point is per-call time — one call builds one
	// instance, and the last instance built is probed by the other ops.
	ns, se, ok := timeOp(deadline, func() { h = ad(keys) })
	if !ok || h == nil {
		return out // deadline spent before a single populate: measure nothing
	}
	out.timeNs[perfmodel.OpPopulate] = ns
	out.timeSE[perfmodel.OpPopulate] = se
	if b, ok := h.Footprint(); ok {
		out.footprint = float64(b)
		out.footOK = true
	}
	i := 0
	if ns, se, ok := timeOp(deadline, func() { h.Contains(probes[i&255]); i++ }); ok {
		out.timeNs[perfmodel.OpContains] = ns
		out.timeSE[perfmodel.OpContains] = se
	}
	if ns, se, ok := timeOp(deadline, func() { h.Iterate() }); ok {
		out.timeNs[perfmodel.OpIterate] = ns
		out.timeSE[perfmodel.OpIterate] = se
	}
	if ns, se, ok := timeOp(deadline, func() { h.Middle() }); ok {
		out.timeNs[perfmodel.OpMiddle] = ns
		out.timeSE[perfmodel.OpMiddle] = se
	}
	return out
}

// timeOp estimates fn's per-call time in nanoseconds with geometrically
// growing batches. Once a batch is long enough to trust (batchSliceNs) the
// same batch size is repeated up to seBatches times (deadline permitting) and
// the spread of the per-call batch means yields the estimate's standard
// error — se 0 when only one trusted batch fit. ok=false means the deadline
// was already spent before a single call could run.
func timeOp(deadline time.Time, fn func()) (nsPerCall, se float64, ok bool) {
	var totalNs, totalCalls float64
	var batchMeans []float64
	n := 1
	for {
		if !time.Now().Before(deadline) {
			break
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		batch := time.Since(start)
		totalNs += float64(batch.Nanoseconds())
		totalCalls += float64(n)
		if batch.Nanoseconds() >= batchSliceNs {
			batchMeans = append(batchMeans, float64(batch.Nanoseconds())/float64(n))
			if len(batchMeans) >= seBatches {
				break
			}
			continue // repeat the trusted batch size for the spread estimate
		}
		n *= 4
	}
	if totalCalls == 0 {
		return 0, 0, false
	}
	if k := len(batchMeans); k >= 2 {
		var mean, ss float64
		for _, b := range batchMeans {
			mean += b
		}
		mean /= float64(k)
		for _, b := range batchMeans {
			d := b - mean
			ss += d * d
		}
		se = math.Sqrt(ss/float64(k-1)) / math.Sqrt(float64(k))
	}
	return totalNs / totalCalls, se, true
}
