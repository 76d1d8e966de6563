// Package perfmodel implements the paper's performance-model component: the
// factorial benchmark plan of Table 3, empirical model building on the
// target machine, least-squares cubic cost models per collection variant and
// critical operation, and the analytic default models that ship with the
// framework so it can select variants without a benchmarking pass.
//
// A model answers cost_{op,V}(s): the averaged cost of critical operation op
// on variant V at collection size s, per cost dimension (execution time,
// bytes allocated, retained footprint). WorkloadCost combines these into the
// total-cost estimate TC_D(V) of Section 3.1.1, the one cost function the
// selection engine, the offline search and the tuner share.
package perfmodel

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/collections"
	"repro/internal/polyfit"
)

// Op is a critical collection operation — one whose cost is linear or worse
// on at least one variant (Section 4.1.2).
type Op string

// The four critical operations of Table 3. Populate is charged per complete
// population of a collection to its maximum size; the others are charged per
// call at the collection's maximum size.
const (
	OpPopulate Op = "populate"
	OpContains Op = "contains"
	OpIterate  Op = "iterate"
	OpMiddle   Op = "middle"
)

// Ops lists all critical operations in Table 3 order.
func Ops() []Op { return []Op{OpPopulate, OpContains, OpIterate, OpMiddle} }

// Dimension is a performance cost dimension (Section 3.1.2).
type Dimension string

// The cost dimensions modeled in this reproduction. (The paper names energy
// as future work.)
const (
	DimTimeNS    Dimension = "time-ns"   // execution time, nanoseconds
	DimAllocB    Dimension = "alloc-b"   // bytes allocated during the operation
	DimFootprint Dimension = "footprint" // retained bytes at size s
)

// Dimensions lists all modeled cost dimensions, including the synthesized
// energy dimension (see energy.go).
func Dimensions() []Dimension {
	return []Dimension{DimTimeNS, DimAllocB, DimFootprint, DimEnergy}
}

// key identifies one fitted curve.
type key struct {
	Variant collections.VariantID
	Op      Op
	Dim     Dimension
}

// piece is one segment of a cost curve: poly applies for sizes <= upTo.
// The final piece of every curve has upTo = +Inf. vp, when non-empty, is the
// prediction-variance polynomial of the segment — StdErr(s)² as fitted by
// polyfit (see FitResult.VarPoly) or the sampling variance of a measured
// overlay band. An empty vp means the segment carries no uncertainty
// information and its cost is treated as exact.
type piece struct {
	upTo float64
	poly polyfit.Poly
	vp   polyfit.Poly
}

// curve is a piecewise-polynomial cost function. Non-adaptive variants use
// a single piece; adaptive variants get one polynomial per representation
// regime with the break at their transition threshold — a single cubic
// cannot follow the kinked cost function of an array→hash collection
// without inventing phantom costs on one side of the threshold.
type curve struct {
	pieces []piece
}

func (c curve) eval(s float64) float64 {
	for _, p := range c.pieces {
		if s <= p.upTo {
			return p.poly.Eval(s)
		}
	}
	if n := len(c.pieces); n > 0 {
		return c.pieces[n-1].poly.Eval(s)
	}
	return 0
}

// pieceAt returns the segment covering size s (the last one for s beyond
// every bound, matching eval), ok=false for an empty curve.
func (c curve) pieceAt(s float64) (piece, bool) {
	for _, p := range c.pieces {
		if s <= p.upTo {
			return p, true
		}
	}
	if n := len(c.pieces); n > 0 {
		return c.pieces[n-1], true
	}
	return piece{}, false
}

// Models holds the fitted cost curves for a set of collection variants.
// The zero value is empty; use Set/Cost to populate and query. Models are
// safe for concurrent reads after construction.
type Models struct {
	curves map[key]curve
	// fp, when non-nil, records the machine the curves were measured on
	// (empirically built or calibration-refined model sets; the analytic
	// defaults are machine-independent and carry none).
	fp *Fingerprint
}

// SetFingerprint attaches the machine identity the curves were measured on.
func (m *Models) SetFingerprint(f Fingerprint) { m.fp = &f }

// MeasuredOn returns the machine fingerprint attached to the model set,
// ok=false for machine-independent (analytic) models.
func (m *Models) MeasuredOn() (Fingerprint, bool) {
	if m.fp == nil {
		return Fingerprint{}, false
	}
	return *m.fp, true
}

// Clone returns an independent copy: mutating the clone (Set, Merge,
// OverlayMeasured) never affects the original, so a running engine's active
// models can be refined off to the side and hot-swapped in atomically.
func (m *Models) Clone() *Models {
	out := NewModels()
	for k, cv := range m.curves {
		pieces := make([]piece, len(cv.pieces))
		copy(pieces, cv.pieces)
		out.curves[k] = curve{pieces: pieces}
	}
	if m.fp != nil {
		fp := *m.fp
		out.fp = &fp
	}
	return out
}

// NewModels returns an empty model set.
func NewModels() *Models {
	return &Models{curves: make(map[key]curve)}
}

// Set stores a single-polynomial cost curve for (variant, op, dim),
// replacing any previous curve.
func (m *Models) Set(v collections.VariantID, op Op, dim Dimension, p polyfit.Poly) {
	m.curves[key{v, op, dim}] = curve{pieces: []piece{{upTo: math.Inf(1), poly: p}}}
}

// SetWithVar stores a single-polynomial cost curve together with its
// prediction-variance polynomial (StdErr² as a function of size, from
// polyfit.FitResult.VarPoly), enabling CostSE on the curve.
func (m *Models) SetWithVar(v collections.VariantID, op Op, dim Dimension, p, variance polyfit.Poly) {
	m.curves[key{v, op, dim}] = curve{pieces: []piece{{upTo: math.Inf(1), poly: p, vp: variance}}}
}

// SetPiecewise stores a two-regime cost curve: below applies for sizes up
// to threshold, above beyond it. Used for the adaptive variants, whose cost
// functions kink at the representation transition.
func (m *Models) SetPiecewise(v collections.VariantID, op Op, dim Dimension, threshold float64, below, above polyfit.Poly) {
	m.curves[key{v, op, dim}] = curve{pieces: []piece{
		{upTo: threshold, poly: below},
		{upTo: math.Inf(1), poly: above},
	}}
}

// SetPiecewiseWithVar is SetPiecewise with a prediction-variance polynomial
// per regime.
func (m *Models) SetPiecewiseWithVar(v collections.VariantID, op Op, dim Dimension, threshold float64, below, belowVar, above, aboveVar polyfit.Poly) {
	m.curves[key{v, op, dim}] = curve{pieces: []piece{
		{upTo: threshold, poly: below, vp: belowVar},
		{upTo: math.Inf(1), poly: above, vp: aboveVar},
	}}
}

// Has reports whether a curve exists for (variant, op, dim).
func (m *Models) Has(v collections.VariantID, op Op, dim Dimension) bool {
	_, ok := m.curves[key{v, op, dim}]
	return ok
}

// MissingCurve reports the first (op, dimension) cell variant v lacks a
// curve for, over exactly the cells a workload cost evaluates: every
// critical op per dimension, except footprint, which is charged through the
// populate curve only. Cells are visited in dims order, then Ops() order,
// so the reported gap is stable. missing is false when every cell is
// covered.
func (m *Models) MissingCurve(v collections.VariantID, dims []Dimension) (op Op, dim Dimension, missing bool) {
	for _, dim := range dims {
		if dim == DimFootprint {
			if !m.Has(v, OpPopulate, dim) {
				return OpPopulate, dim, true
			}
			continue
		}
		for _, op := range Ops() {
			if !m.Has(v, op, dim) {
				return op, dim, true
			}
		}
	}
	return "", "", false
}

// Cost evaluates cost_{op,V}(size) on dimension dim. Negative evaluations
// (possible near the origin of a least-squares cubic) are clamped to zero.
// Querying a missing curve panics: the engine must never silently compare a
// modeled variant with an unmodeled one.
func (m *Models) Cost(v collections.VariantID, op Op, dim Dimension, size float64) float64 {
	cv, ok := m.curves[key{v, op, dim}]
	if !ok {
		panic(fmt.Sprintf("perfmodel: no curve for %s/%s/%s", v, op, dim))
	}
	c := cv.eval(size)
	if c < 0 {
		return 0
	}
	return c
}

// CostSE returns the clamped cost estimate together with its standard error
// at the given size. ok is false when the covering segment carries no
// variance information (analytic defaults, merged curves), in which case the
// cost must be treated as exact. Like Cost, it panics on a missing curve.
func (m *Models) CostSE(v collections.VariantID, op Op, dim Dimension, size float64) (cost, se float64, ok bool) {
	cv, found := m.curves[key{v, op, dim}]
	if !found {
		panic(fmt.Sprintf("perfmodel: no curve for %s/%s/%s", v, op, dim))
	}
	cost = cv.eval(size)
	if cost < 0 {
		cost = 0
	}
	p, found := cv.pieceAt(size)
	if !found || len(p.vp.Coeffs) == 0 {
		return cost, 0, false
	}
	variance := p.vp.Eval(size)
	if variance < 0 || math.IsNaN(variance) {
		variance = 0
	}
	return cost, math.Sqrt(variance), true
}

// Usage is the operation mix of a workload, the input of the total cost
// TC_D(V) of Section 3.1.1. Populate counts complete populations to the
// evaluated size (added elements divided by that size); the other counts
// are calls. Instances scales the footprint dimension only: retained state
// is charged once per instance.
type Usage struct {
	Instances                           float64
	Populate, Contains, Iterate, Middle float64
}

// WorkloadCost is the one implementation of TC_D(V): variant v's cost of
// usage u at collection size size on dimension dim. Operation dimensions
// charge Σ count·cost_op(size) over the critical operations; footprint is
// retained state, Instances·cost_populate(size). Like Cost it panics on a
// missing curve — MissingCurve checks coverage of exactly these cells. The
// online selector, the offline search and the tuner's shadow planner all
// price workloads here.
func (m *Models) WorkloadCost(v collections.VariantID, dim Dimension, u Usage, size float64) float64 {
	if dim == DimFootprint {
		return u.Instances * m.Cost(v, OpPopulate, dim, size)
	}
	c := u.Populate * m.Cost(v, OpPopulate, dim, size)
	c += u.Contains * m.Cost(v, OpContains, dim, size)
	c += u.Iterate * m.Cost(v, OpIterate, dim, size)
	c += u.Middle * m.Cost(v, OpMiddle, dim, size)
	return c
}

// WorkloadCostSE is WorkloadCost together with the standard error of the
// total, accumulated as the perfectly correlated sum Σ count·se: the widest
// defensible interval, since the per-op model errors of one variant share
// their benchmark runs. cost is bit-identical to WorkloadCost. ok is false
// when any evaluated curve carries no variance information; such terms add
// nothing to se.
func (m *Models) WorkloadCostSE(v collections.VariantID, dim Dimension, u Usage, size float64) (cost, se float64, ok bool) {
	if dim == DimFootprint {
		c, e, ok := m.CostSE(v, OpPopulate, dim, size)
		return u.Instances * c, u.Instances * e, ok
	}
	c, e, ok := m.CostSE(v, OpPopulate, dim, size)
	cost, se = u.Populate*c, u.Populate*e
	for _, t := range [...]struct {
		op Op
		n  float64
	}{{OpContains, u.Contains}, {OpIterate, u.Iterate}, {OpMiddle, u.Middle}} {
		c, e, tok := m.CostSE(v, t.op, dim, size)
		cost += t.n * c
		se += t.n * e
		ok = ok && tok
	}
	return cost, se, ok
}

// Curve returns the stored polynomial for (variant, op, dim) when it is a
// single-piece curve; piecewise curves report ok = false (use Cost or
// CurveString for those).
func (m *Models) Curve(v collections.VariantID, op Op, dim Dimension) (polyfit.Poly, bool) {
	cv, ok := m.curves[key{v, op, dim}]
	if !ok || len(cv.pieces) != 1 {
		return polyfit.Poly{}, false
	}
	return cv.pieces[0].poly, true
}

// CurveString renders the stored curve, piecewise or not.
func (m *Models) CurveString(v collections.VariantID, op Op, dim Dimension) (string, bool) {
	cv, ok := m.curves[key{v, op, dim}]
	if !ok {
		return "", false
	}
	if len(cv.pieces) == 1 {
		return cv.pieces[0].poly.String(), true
	}
	parts := make([]string, len(cv.pieces))
	for i, p := range cv.pieces {
		if math.IsInf(p.upTo, 1) {
			parts[i] = fmt.Sprintf("x>prev: %s", p.poly)
		} else {
			parts[i] = fmt.Sprintf("x<=%g: %s", p.upTo, p.poly)
		}
	}
	return strings.Join(parts, " | "), true
}

// Variants returns the sorted list of variant IDs with at least one curve.
func (m *Models) Variants() []collections.VariantID {
	seen := make(map[collections.VariantID]bool)
	for k := range m.curves {
		seen[k.Variant] = true
	}
	out := make([]collections.VariantID, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of stored curves.
func (m *Models) Len() int { return len(m.curves) }

// Merge copies every curve of other into m, overwriting duplicates.
func (m *Models) Merge(other *Models) {
	for k, p := range other.curves {
		m.curves[k] = p
	}
}

// combine builds f(a, b) piecewise, merging the two curves' breakpoints.
// Variance information does not survive combination: f is an arbitrary
// polynomial map with no error-propagation rule, so combined curves (the
// synthesized energy dimension) report no uncertainty.
func combine(a, b curve, f func(pa, pb polyfit.Poly) polyfit.Poly) curve {
	bounds := map[float64]bool{}
	for _, p := range a.pieces {
		bounds[p.upTo] = true
	}
	for _, p := range b.pieces {
		bounds[p.upTo] = true
	}
	cuts := make([]float64, 0, len(bounds))
	for u := range bounds {
		cuts = append(cuts, u)
	}
	sort.Float64s(cuts)
	segAt := func(c curve, x float64) polyfit.Poly {
		for _, p := range c.pieces {
			if x <= p.upTo {
				return p.poly
			}
		}
		return c.pieces[len(c.pieces)-1].poly
	}
	out := curve{pieces: make([]piece, 0, len(cuts))}
	for _, u := range cuts {
		// Pick a representative x inside this segment.
		x := u
		if math.IsInf(u, 1) {
			x = math.MaxFloat64
		}
		out.pieces = append(out.pieces, piece{upTo: u, poly: f(segAt(a, x), segAt(b, x))})
	}
	return out
}
