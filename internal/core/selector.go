package core

import (
	"fmt"
	"math"

	"repro/internal/collections"
	"repro/internal/perfmodel"
)

// costAgg incrementally accumulates the per-variant total costs TC_D(V) of
// Section 3.1.1 over the workloads of finished instances. Folding happens
// once per instance; the decision step then only compares the accumulated
// sums, making its cost independent of the window size (the Figure 7
// property).
type costAgg struct {
	models     *perfmodel.Models
	candidates []collections.VariantID
	dims       []perfmodel.Dimension
	// tc[candidateIndex][dimIndex] accumulated total cost.
	tc     [][]float64
	folded int
	// size spread of folded workloads, for adaptive gating.
	minSize, maxSize int64
	// Confidence gating (Config.ConfidenceLevel): z is the normal-quantile
	// multiplier of the configured level and lo/hi mirror tc with the
	// accumulated interval bounds. Both stay zero/nil — and fold performs no
	// interval work at all — until setConfidence arms them.
	z      float64
	lo, hi [][]float64
}

func newCostAgg(models *perfmodel.Models, candidates []collections.VariantID) *costAgg {
	return newCostAggDims(models, candidates, perfmodel.Dimensions())
}

// newCostAggDims builds an aggregate over only the given dimensions. The
// site cores pass the active rule's dimensions: accumulating dimensions the
// rule never reads would waste fold work and would demand model curves the
// decision cannot use.
func newCostAggDims(models *perfmodel.Models, candidates []collections.VariantID, dims []perfmodel.Dimension) *costAgg {
	a := &costAgg{
		models:     models,
		candidates: candidates,
		dims:       dims,
		tc:         make([][]float64, len(candidates)),
		minSize:    math.MaxInt64,
	}
	for i := range a.tc {
		a.tc[i] = make([]float64, len(a.dims))
	}
	return a
}

// setConfidence arms the aggregate's interval accumulation: z is the normal
// quantile of the engine's ConfidenceLevel (√2·erfinv(level)). With z ≤ 0 —
// the default — the aggregate stays a pure point-estimate accumulator and
// decide is byte-identical to the legacy path.
func (a *costAgg) setConfidence(z float64) {
	if z <= 0 {
		return
	}
	a.z = z
	a.lo = make([][]float64, len(a.candidates))
	a.hi = make([][]float64, len(a.candidates))
	for i := range a.candidates {
		a.lo[i] = make([]float64, len(a.dims))
		a.hi[i] = make([]float64, len(a.dims))
	}
}

// fold adds one instance workload to the running totals.
func (a *costAgg) fold(w Workload) {
	a.folded++
	if w.MaxSize < a.minSize {
		a.minSize = w.MaxSize
	}
	if w.MaxSize > a.maxSize {
		a.maxSize = w.MaxSize
	}
	s := float64(w.MaxSize)
	if s < 1 {
		s = 1
	}
	// Populate is modeled per complete population to size s, so the raw
	// add count converts to "number of populations".
	popN := float64(w.Adds) / s
	for ci, v := range a.candidates {
		for di, dim := range a.dims {
			if dim == perfmodel.DimFootprint {
				// Footprint is a retained-state dimension: charged
				// once per instance at its maximum size.
				a.tc[ci][di] += a.models.Cost(v, perfmodel.OpPopulate, dim, s)
				if a.z > 0 {
					l, h := a.models.CostCI(v, perfmodel.OpPopulate, dim, s, a.z)
					a.lo[ci][di] += l
					a.hi[ci][di] += h
				}
				continue
			}
			c := popN * a.models.Cost(v, perfmodel.OpPopulate, dim, s)
			c += float64(w.Contains) * a.models.Cost(v, perfmodel.OpContains, dim, s)
			c += float64(w.Iterates) * a.models.Cost(v, perfmodel.OpIterate, dim, s)
			c += float64(w.Middles) * a.models.Cost(v, perfmodel.OpMiddle, dim, s)
			a.tc[ci][di] += c
			if a.z > 0 {
				// Interval bounds accumulate with the same multipliers as
				// the point costs. Summing lower bounds with lower bounds
				// (and upper with upper) treats the per-op model errors as
				// perfectly correlated — a conservative widening that can
				// only suppress switches, never force one.
				lp, hp := a.models.CostCI(v, perfmodel.OpPopulate, dim, s, a.z)
				lc, hc := a.models.CostCI(v, perfmodel.OpContains, dim, s, a.z)
				li, hit := a.models.CostCI(v, perfmodel.OpIterate, dim, s, a.z)
				lm, hm := a.models.CostCI(v, perfmodel.OpMiddle, dim, s, a.z)
				a.lo[ci][di] += popN*lp + float64(w.Contains)*lc + float64(w.Iterates)*li + float64(w.Middles)*lm
				a.hi[ci][di] += popN*hp + float64(w.Contains)*hc + float64(w.Iterates)*hit + float64(w.Middles)*hm
			}
		}
	}
}

// total returns TC_D(V) for candidate index ci.
func (a *costAgg) total(ci int, dim perfmodel.Dimension) float64 {
	for di, d := range a.dims {
		if d == dim {
			return a.tc[ci][di]
		}
	}
	return 0
}

// sizeSpread returns maxSize/minSize of the folded workloads (≥1); 1 when
// nothing was folded.
func (a *costAgg) sizeSpread() float64 {
	if a.folded == 0 || a.maxSize <= 0 {
		return 1
	}
	minSz := a.minSize
	if minSz < 1 {
		minSz = 1
	}
	return float64(a.maxSize) / float64(minSz)
}

// decision is the outcome of evaluating a rule over an aggregate.
type decision struct {
	switchTo collections.VariantID
	ratios   map[perfmodel.Dimension]float64
	ok       bool
	// suppressedTo names the best candidate (lowest point first-criterion
	// ratio) that cleared every point-estimate threshold but was withheld by
	// the confidence gate: its interval upper ratio exceeded a threshold.
	// Empty when nothing was suppressed. suppressedC1 carries its point
	// first-criterion ratio for the decision record and suppression event.
	suppressedTo collections.VariantID
	suppressedC1 float64
}

// decide applies the selection rule of Section 3.1.2: a candidate is
// eligible if TC_D(new)/TC_D(cur) ≤ T_D for every criterion; among eligible
// candidates the largest improvement on the first criterion wins. Adaptive
// variants are only considered when the observed sizes are "widely ranging"
// (Section 3.2): the spread must reach adaptiveSpread AND the sizes must
// straddle the variant's transition threshold — an adaptive collection is
// pointless when every instance stays on one side of it.
func decide(a *costAgg, current collections.VariantID, rule Rule, adaptiveSpread float64, adaptiveThreshold int64) decision {
	d, _, _, _ := decideExplain(a, current, rule, adaptiveSpread, adaptiveThreshold, false)
	return d
}

// decideExplain is decide plus explainability: when explain is set it also
// returns one CandidateEstimate per catalog candidate (costs, ratios,
// eligibility, the first gate each ineligible candidate failed) and the
// nearest miss — the non-gated alternative with the lowest first-criterion
// ratio, whether or not it was eligible — for the held-decision margin. The
// decision itself is computed identically with explain on or off.
//
// On a confidence-armed aggregate (setConfidence) a point-eligible candidate
// must additionally clear every criterion with its interval upper ratio; the
// best candidate the gate withholds is reported through the decision's
// suppressed fields so the engine can surface it as a ci_overlap outcome.
func decideExplain(a *costAgg, current collections.VariantID, rule Rule, adaptiveSpread float64, adaptiveThreshold int64, explain bool) (decision, []CandidateEstimate, collections.VariantID, float64) {
	curIdx := -1
	for i, v := range a.candidates {
		if v == current {
			curIdx = i
			break
		}
	}
	if curIdx < 0 || a.folded == 0 {
		return decision{}, nil, "", math.Inf(1)
	}
	spread := a.sizeSpread()
	best := decision{}
	bestC1 := math.Inf(1)
	var estimates []CandidateEstimate
	var miss collections.VariantID
	missC1 := math.Inf(1)
	var supTo collections.VariantID
	supC1 := math.Inf(1)
	if explain {
		estimates = make([]CandidateEstimate, 0, len(a.candidates))
	}
	for i, v := range a.candidates {
		if i == curIdx {
			if explain {
				estimates = append(estimates, a.estimate(i, curIdx, rule, false, "current"))
			}
			continue
		}
		if collections.IsAdaptive(v) {
			straddles := a.minSize < adaptiveThreshold && a.maxSize > adaptiveThreshold
			if spread < adaptiveSpread || !straddles {
				if explain {
					estimates = append(estimates, a.estimate(i, curIdx, rule, false, "adaptive size gate"))
				}
				continue
			}
		}
		ratios := make(map[perfmodel.Dimension]float64, len(rule.Criteria))
		eligible := true
		failure := ""
		for _, crit := range rule.Criteria {
			ratio := a.ratio(i, curIdx, crit.Dimension)
			ratios[crit.Dimension] = ratio
			if ratio > crit.Threshold {
				eligible = false
				if failure == "" {
					failure = fmt.Sprintf("%s ratio %.4g > threshold %.4g", crit.Dimension, ratio, crit.Threshold)
				}
				if !explain {
					break
				}
			}
		}
		// Confidence gate: a candidate that beat every point threshold must
		// also beat them with its conservative upper ratio (candidate upper
		// bound over current lower bound) before it may switch. Disarmed
		// aggregates (z == 0) never enter this loop, keeping the legacy
		// decision path — and its traces — bit-identical.
		ciBlocked := false
		if eligible && a.z > 0 {
			for _, crit := range rule.Criteria {
				rhi := a.ratioCI(i, curIdx, crit.Dimension)
				if rhi > crit.Threshold {
					ciBlocked = true
					if failure == "" {
						failure = fmt.Sprintf("ci_overlap: %s upper ratio %.4g > threshold %.4g", crit.Dimension, rhi, crit.Threshold)
					}
					if !explain {
						break
					}
				}
			}
			if ciBlocked {
				if c1 := ratios[rule.Criteria[0].Dimension]; c1 < supC1 {
					supC1 = c1
					supTo = v
				}
			}
		}
		if explain {
			est := a.estimate(i, curIdx, rule, eligible && !ciBlocked, failure)
			est.Ratios = ratios
			estimates = append(estimates, est)
			if c1 := ratios[rule.Criteria[0].Dimension]; c1 < missC1 {
				missC1 = c1
				miss = v
			}
		}
		if !eligible || ciBlocked {
			continue
		}
		c1 := ratios[rule.Criteria[0].Dimension]
		if c1 < bestC1 {
			bestC1 = c1
			best = decision{switchTo: v, ratios: ratios, ok: true}
		}
	}
	if supTo != "" {
		best.suppressedTo = supTo
		best.suppressedC1 = supC1
	}
	return best, estimates, miss, missC1
}

// ratio returns TC_D(candidate ci)/TC_D(candidate curIdx) with the decide
// conventions for zero denominators.
func (a *costAgg) ratio(ci, curIdx int, dim perfmodel.Dimension) float64 {
	newCost := a.total(ci, dim)
	curCost := a.total(curIdx, dim)
	switch {
	case curCost > 0:
		return newCost / curCost
	case newCost == 0:
		return 1
	default:
		return math.Inf(1)
	}
}

// ratioCI returns the conservative upper bound on TC_D(ci)/TC_D(curIdx):
// the candidate's accumulated upper bound over the current variant's lower
// bound, with the decide conventions for zero denominators. Only meaningful
// on armed aggregates (setConfidence).
func (a *costAgg) ratioCI(ci, curIdx int, dim perfmodel.Dimension) float64 {
	di := -1
	for j, d := range a.dims {
		if d == dim {
			di = j
			break
		}
	}
	if di < 0 {
		return math.Inf(1)
	}
	hiNew := a.hi[ci][di]
	loCur := a.lo[curIdx][di]
	switch {
	case loCur > 0:
		return hiNew / loCur
	case hiNew == 0:
		return 1
	default:
		return math.Inf(1)
	}
}

// estimate builds the explain entry for candidate ci: accumulated costs over
// every aggregated dimension plus the rule-criterion ratios against curIdx.
func (a *costAgg) estimate(ci, curIdx int, rule Rule, eligible bool, reason string) CandidateEstimate {
	costs := make(map[perfmodel.Dimension]float64, len(a.dims))
	for di, dim := range a.dims {
		costs[dim] = a.tc[ci][di]
	}
	est := CandidateEstimate{
		Variant:  a.candidates[ci],
		Costs:    costs,
		Eligible: eligible,
		Reason:   reason,
	}
	if a.z > 0 {
		est.CostsLo = make(map[perfmodel.Dimension]float64, len(a.dims))
		est.CostsHi = make(map[perfmodel.Dimension]float64, len(a.dims))
		for di, dim := range a.dims {
			est.CostsLo[dim] = a.lo[ci][di]
			est.CostsHi[dim] = a.hi[ci][di]
		}
	}
	if ci != curIdx {
		est.Ratios = make(map[perfmodel.Dimension]float64, len(rule.Criteria))
		for _, crit := range rule.Criteria {
			est.Ratios[crit.Dimension] = a.ratio(ci, curIdx, crit.Dimension)
		}
		if a.z > 0 {
			est.RatiosHi = make(map[perfmodel.Dimension]float64, len(rule.Criteria))
			for _, crit := range rule.Criteria {
				est.RatiosHi[crit.Dimension] = a.ratioCI(ci, curIdx, crit.Dimension)
			}
		}
	}
	return est
}
