package perfmodel

import (
	"fmt"

	"repro/internal/collections"
	"repro/internal/polyfit"
)

// This file fits the analytic default models that ship with the framework.
// The cost functions themselves live on the variant catalog
// (collections.Entry.Analytic, see collections/catalog_models.go): the paper
// builds its models by benchmarking on the target machine (Section 4.1) and
// this repository supports that too (builder.go, cmd/perfmodel), but
// hardware-independent defaults keep the selection engine deterministic in
// tests and examples. Default samples each catalog entry's analytic
// functions at the Table 3 plan sizes and fits them with the same
// least-squares cubic machinery the empirical builder uses, so default and
// machine-built models are interchangeable everywhere — including for
// user-registered variants carrying a collections.WithAnalytic model.

// fitAnalytic samples fn at the plan sizes selected by keep and fits the
// plan-degree polynomial (degraded when too few points remain), panicking
// on failure: defaults are static data, so a failure is a programming error.
func fitAnalytic(fn collections.CostFn, plan Plan, keep func(int) bool) polyfit.Poly {
	samples := polyfit.NewSamples(len(plan.Sizes))
	for _, s := range plan.Sizes {
		if keep(s) {
			samples.Add(float64(s), fn(float64(s)))
		}
	}
	degree := min(plan.Degree, samples.Len()-1)
	if degree < 0 {
		panic("perfmodel: no plan sizes in fit segment")
	}
	r, err := polyfit.FitRidge(samples, degree, 0)
	if err != nil {
		panic(fmt.Sprintf("perfmodel: default fit failed: %v", err))
	}
	return r.Poly
}

// setCurves stores fn's fit for one (variant, op, dim): a single fit for
// ordinary variants, a two-regime piecewise fit at the transition threshold
// for adaptive ones.
func setCurves(m *Models, id collections.VariantID, op Op, dim Dimension, fn collections.CostFn, plan Plan) {
	if !collections.IsAdaptive(id) {
		m.Set(id, op, dim, fitAnalytic(fn, plan, func(int) bool { return true }))
		return
	}
	thr := float64(collections.AdaptiveThresholdOf(id))
	below := fitAnalytic(fn, plan, func(s int) bool { return float64(s) <= thr })
	above := fitAnalytic(fn, plan, func(s int) bool { return float64(s) > thr })
	m.SetPiecewise(id, op, dim, thr, below, above)
}

// Default returns the analytic default models for every catalog variant
// carrying an analytic model, fitted over the Table 3 plan sizes with cubic
// polynomials. The result is freshly built on each call; callers typically
// build it once and share it (reads are concurrency-safe).
func Default() *Models {
	return DefaultDegree(DefaultPlan().Degree)
}

// DefaultDegree builds the analytic default models with fits of the given
// polynomial degree instead of the paper's cubic. Lower degrees smear the
// piecewise adaptive-variant curves badly — the model-degree ablation bench
// quantifies what that costs in selection quality.
func DefaultDegree(degree int) *Models {
	plan := DefaultPlan()
	plan.Degree = degree
	// Densify the sample grid below the adaptive thresholds: with only
	// two Table 3 sizes under 80, a cubic fitted to a piecewise curve
	// sags toward zero there and invents phantom advantages for the
	// adaptive variants on tiny-collection sites.
	small := []int{20, 30, 40, 60, 70, 80}
	plan.Sizes = append(append([]int(nil), small...), plan.Sizes...)
	m := NewModels()
	zero := func(float64) float64 { return 0 }
	for _, e := range collections.Entries() {
		av := e.Analytic
		if av == nil {
			continue
		}
		id := e.Info.ID
		for op, fn := range av.Time {
			setCurves(m, id, Op(op), DimTimeNS, fn, plan)
		}
		setCurves(m, id, OpPopulate, DimAllocB, av.AllocPopulate, plan)
		setCurves(m, id, OpMiddle, DimAllocB, av.AllocMiddle, plan)
		setCurves(m, id, OpContains, DimAllocB, zero, plan)
		setCurves(m, id, OpIterate, DimAllocB, zero, plan)
		for _, op := range Ops() {
			setCurves(m, id, op, DimFootprint, av.Footprint, plan)
		}
	}
	SynthesizeEnergy(m)
	return m
}

// AnalyticCost evaluates the raw (un-fitted) analytic cost function for a
// variant, used by tests to bound the fit error of Default.
func AnalyticCost(v collections.VariantID, op Op, dim Dimension, s float64) (float64, bool) {
	e, ok := collections.EntryOf(v)
	if !ok || e.Analytic == nil {
		return 0, false
	}
	av := e.Analytic
	switch dim {
	case DimTimeNS:
		if fn, ok := av.Time[string(op)]; ok {
			return fn(s), true
		}
	case DimAllocB:
		switch op {
		case OpPopulate:
			return av.AllocPopulate(s), true
		case OpMiddle:
			return av.AllocMiddle(s), true
		default:
			return 0, true
		}
	case DimFootprint:
		return av.Footprint(s), true
	}
	return 0, false
}
