package perfmodel

import (
	"time"

	"repro/internal/collections"
	"repro/internal/obs"
	"repro/internal/polyfit"
)

// This file is the empirical model builder of Section 4.1: it measures every
// collection variant under every (critical operation × size) cell of the
// factorial plan through the measurement kernel (MeasureCell) and fits the
// cost polynomials to the measured ns/op and B/op.
//
// The driver is generic: it measures whatever collections.BenchTarget
// adapters it is handed (cmd/perfmodel takes them from the catalog), so a
// user-registered variant is benchmarked by the same code path as the
// builtins.

// Builder runs the benchmark plan and produces Models.
type Builder struct {
	Plan Plan
	// Sink, if non-nil, receives an obs.BenchmarkProgress event per
	// completed (variant, op) pair with done/total counts; cmd/perfmodel
	// renders them to stderr.
	Sink obs.Sink
	// progress counters across one Build run.
	done, total int
}

// NewBuilder returns a Builder over the given plan.
func NewBuilder(plan Plan) *Builder { return &Builder{Plan: plan} }

// sample is one measured cell of the factorial plan.
type sample struct {
	size  int
	ns    float64 // time per op (populate: per full population)
	alloc float64 // bytes allocated per op
}

// fit fits one dimension of a sample series with GCV-selected ridge
// regularization, so the stored curve carries its prediction variance.
func fit(samples []sample, pick func(sample) float64, degree int) (polyfit.FitResult, error) {
	s := polyfit.NewSamples(len(samples))
	for _, sm := range samples {
		s.Add(float64(sm.size), pick(sm))
	}
	return polyfit.FitGCV(s, degree)
}

// Build measures the given benchmark targets and returns their models
// (without the synthesized energy dimension; see SynthesizeEnergy).
func (b *Builder) Build(targets []collections.BenchTarget) (*Models, error) {
	b.done, b.total = 0, len(targets)*len(Ops())
	m := NewModels()
	for _, t := range targets {
		if err := b.buildTarget(m, t); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// buildTarget measures one variant across the factorial plan through its
// catalog bench adapter, with the plan's warm-up and measured batches and
// no deadline.
func (b *Builder) buildTarget(m *Models, t collections.BenchTarget) error {
	all := map[Op][]sample{}
	foot := make([]sample, 0, len(b.Plan.Sizes))
	for _, size := range b.Plan.Sizes {
		cell := MeasureCell(t.Adapter, size, b.Plan.WarmupIters, b.Plan.MeasureIters, time.Time{})
		for op, s := range cell.Ops {
			all[op] = append(all[op], sample{size, s.NS, s.AllocB})
		}
		if cell.FootprintOK {
			foot = append(foot, sample{size, cell.Footprint, 0})
		}
	}
	return b.store(m, t.ID, all, foot)
}

// fitSamples fits one dimension of a sample series; for adaptive variants
// it fits the two representation regimes separately (their cost functions
// kink at the transition threshold), falling back to a single fit when a
// regime has too few samples.
func (b *Builder) fitSamples(m *Models, id collections.VariantID, op Op, dim Dimension, samples []sample, pick func(sample) float64) error {
	if collections.IsAdaptive(id) {
		thr := float64(collections.AdaptiveThresholdOf(id))
		var below, above []sample
		for _, s := range samples {
			if float64(s.size) <= thr {
				below = append(below, s)
			} else {
				above = append(above, s)
			}
		}
		if len(below) >= 2 && len(above) >= 2 {
			pb, err := fit(below, pick, min(b.Plan.Degree, len(below)-1))
			if err != nil {
				return err
			}
			pa, err := fit(above, pick, min(b.Plan.Degree, len(above)-1))
			if err != nil {
				return err
			}
			m.SetPiecewiseWithVar(id, op, dim, thr, pb.Poly, pb.VarPoly(), pa.Poly, pa.VarPoly())
			return nil
		}
	}
	r, err := fit(samples, pick, b.Plan.Degree)
	if err != nil {
		return err
	}
	m.SetWithVar(id, op, dim, r.Poly, r.VarPoly())
	return nil
}

// store fits and records the curves of one variant.
func (b *Builder) store(m *Models, id collections.VariantID, all map[Op][]sample, foot []sample) error {
	for op, samples := range all {
		if err := b.fitSamples(m, id, op, DimTimeNS, samples, func(s sample) float64 { return s.ns }); err != nil {
			return err
		}
		if err := b.fitSamples(m, id, op, DimAllocB, samples, func(s sample) float64 { return s.alloc }); err != nil {
			return err
		}
		b.done++
		if b.Sink != nil {
			b.Sink.Emit(obs.BenchmarkProgress{
				Variant: string(id), Op: string(op), Done: b.done, Total: b.total,
			})
		}
	}
	if len(foot) > 0 {
		for _, op := range b.Plan.Ops {
			if err := b.fitSamples(m, id, op, DimFootprint, foot, func(s sample) float64 { return s.ns }); err != nil {
				return err
			}
		}
	}
	return nil
}
