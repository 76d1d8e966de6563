package tuner

import (
	"math"

	"repro/internal/collections"
	"repro/internal/perfmodel"
)

// Shadow micro-benchmarks: deadline-bounded measurements of one variant's
// critical operations at one observed collection size, run on the tuner's
// own goroutine through the same kernel the offline model builder uses
// (perfmodel.MeasureCell). The tuner skips the warm-up calls and caps each
// cell with a wall-clock deadline, so the duty-cycle ledger in tuner.go can
// enforce its budget pre-emptively.

// shadowSizeCap bounds the collection size a shadow cell will populate.
// Observed max sizes can be arbitrarily large; populating millions of
// elements inside a millisecond-scale deadline would measure nothing but the
// deadline. Sizes above the cap are clamped (the overlay band then refines
// the curve at the cap, and the analytic curve's shape carries beyond it).
const shadowSizeCap = 1 << 15

// seBatches is how many trusted batches a shadow cell asks the kernel for
// per operation: the spread of their per-call means yields the
// measurement's standard error, which the overlay bands carry into the
// models' prediction intervals. One batch (deadline pressure) means no
// spread estimate — SE 0.
const seBatches = 3

// shadowCell identifies one (variant, size) measurement unit. All four
// critical operations (and the footprint) are measured together: populate
// has to run anyway to build the instance the other ops probe.
type shadowCell struct {
	ID   collections.VariantID
	Size int
}

// cellUncertainty scores a cell by how unsure the active models are about
// it: the summed per-op prediction standard error of the time curves at the
// cell's size, i.e. the cost kernel's SE of one call of each critical op. A
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
