package perfmodel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/polyfit"
)

// The point and SE forms of the cost kernel must agree on the cost bit for
// bit, on every default-model variant and dimension, so arming confidence
// gating can never move a point estimate.
func TestWorkloadCostFormsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, m := range []*Models{Default(), DefaultDegree(1), DefaultDegree(2)} {
		for _, v := range m.Variants() {
			for _, dim := range Dimensions() {
				if _, _, missing := m.MissingCurve(v, []Dimension{dim}); missing {
					continue
				}
				for trial := 0; trial < 20; trial++ {
					count := func() float64 {
						switch rng.Intn(4) {
						case 0:
							return 0
						case 1:
							return float64(rng.Intn(10))
						default:
							return rng.ExpFloat64() * 1e4
						}
					}
					u := Usage{Instances: count(), Populate: count(), Contains: count(), Iterate: count(), Middle: count()}
					size := 1 + rng.ExpFloat64()*math.Pow(10, float64(rng.Intn(6)))
					point := m.WorkloadCost(v, dim, u, size)
					cost, _, _ := m.WorkloadCostSE(v, dim, u, size)
					if math.Float64bits(point) != math.Float64bits(cost) {
						t.Fatalf("%s/%s %+v at %g: WorkloadCost %v != WorkloadCostSE %v", v, dim, u, size, point, cost)
					}
				}
			}
		}
	}
}

// TC_D by hand: operation dimensions sum count·cost over the four critical
// ops, footprint is Instances·cost(populate); the SE is the correlated sum
// Σ count·se, and a term without variance clears ok but adds nothing.
func TestWorkloadCostHandComputed(t *testing.T) {
	m := NewModels()
	c := func(x float64) polyfit.Poly { return polyfit.Poly{Coeffs: []float64{x}} }
	m.SetWithVar("v", OpPopulate, DimTimeNS, c(100), c(9)) // se 3
	m.SetWithVar("v", OpContains, DimTimeNS, c(10), c(4))  // se 2
	m.SetWithVar("v", OpIterate, DimTimeNS, c(50), c(1))   // se 1
	m.SetWithVar("v", OpMiddle, DimTimeNS, c(5), c(0))     // se 0
	m.SetWithVar("v", OpPopulate, DimFootprint, c(64), c(16))
	u := Usage{Instances: 4, Populate: 2, Contains: 30, Iterate: 3, Middle: 7}

	if got := m.WorkloadCost("v", DimTimeNS, u, 8); got != 2*100+30*10+3*50+7*5 {
		t.Errorf("time cost = %g, want 685", got)
	}
	cost, se, ok := m.WorkloadCostSE("v", DimTimeNS, u, 8)
	if cost != 685 || se != 2*3+30*2+3*1 || !ok {
		t.Errorf("time cost/se/ok = %g/%g/%v, want 685/69/true", cost, se, ok)
	}
	cost, se, ok = m.WorkloadCostSE("v", DimFootprint, u, 8)
	if cost != 4*64 || se != 4*4 || !ok {
		t.Errorf("footprint cost/se/ok = %g/%g/%v, want 256/16/true", cost, se, ok)
	}

	m.Set("v", OpMiddle, DimTimeNS, c(5))
	cost, se, ok = m.WorkloadCostSE("v", DimTimeNS, u, 8)
	if cost != 685 || se != 69 || ok {
		t.Errorf("variance-free middle: cost/se/ok = %g/%g/%v, want 685/69/false", cost, se, ok)
	}
}
