package search

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/collections"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/polyfit"
)

func constPoly(c float64) polyfit.Poly { return polyfit.Poly{Coeffs: []float64{c}} }

// setVariant installs constant curves for one synthetic variant: `t` per
// critical op on time, `f` on footprint (populate only is required, but all
// ops are cheap to install), zero alloc.
func setVariant(m *perfmodel.Models, v collections.VariantID, t, f float64) {
	for _, op := range perfmodel.Ops() {
		m.Set(v, op, perfmodel.DimTimeNS, constPoly(t))
		m.Set(v, op, perfmodel.DimAllocB, constPoly(0))
		m.Set(v, op, perfmodel.DimFootprint, constPoly(f))
	}
}

const (
	vFast  collections.VariantID = "test/fast"  // cheap time, heavy footprint
	vSmall collections.VariantID = "test/small" // slow, tiny footprint
	vBad   collections.VariantID = "test/bad"   // dominated everywhere
)

func testModels() *perfmodel.Models {
	m := perfmodel.NewModels()
	setVariant(m, vFast, 1, 100)
	setVariant(m, vSmall, 10, 1)
	setVariant(m, vBad, 20, 200)
	return m
}

func testProfile() core.WorkloadProfile {
	return core.WorkloadProfile{
		Adds: 100, Contains: 50, Iterates: 10, Middles: 5,
		Instances: 2, MeanSize: 10, MaxSize: 20,
	}
}

func testProblem(nSites int) Problem {
	p := Problem{
		Models:     testModels(),
		Objectives: []Objective{ObjTime, ObjMem},
	}
	for i := 0; i < nSites; i++ {
		p.Sites = append(p.Sites, Site{
			Name:       "site",
			Baseline:   vBad,
			Candidates: []collections.VariantID{vFast, vSmall, vBad},
			Profile:    testProfile(),
		})
	}
	return p
}

func TestParseObjectives(t *testing.T) {
	objs, err := ParseObjectives("time, mem")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(objs, []Objective{ObjTime, ObjMem}) {
		t.Fatalf("objs = %v", objs)
	}
	if _, err := ParseObjectives("time,bogus"); err == nil {
		t.Fatal("bogus objective accepted")
	}
	if _, err := ParseObjectives(","); err == nil {
		t.Fatal("empty objective list accepted")
	}
}

func TestDominates(t *testing.T) {
	if !Dominates([]float64{1, 2}, []float64{2, 2}) {
		t.Error("strictly better on one, equal on other: should dominate")
	}
	if Dominates([]float64{1, 3}, []float64{2, 2}) {
		t.Error("trade-off: should not dominate")
	}
	if Dominates([]float64{2, 2}, []float64{2, 2}) {
		t.Error("equal: should not dominate")
	}
	n, noWorse := BetterCount([]float64{1, 1, 2}, []float64{2, 2, 2})
	if n != 2 || !noWorse {
		t.Errorf("BetterCount = %d, %v", n, noWorse)
	}
}

func TestSiteCostMatchesHandComputation(t *testing.T) {
	m := testModels()
	dims := []perfmodel.Dimension{perfmodel.DimTimeNS, perfmodel.DimFootprint}
	mx, err := buildMatrix(Problem{Sites: []Site{{
		Name: "site", Baseline: vFast, Candidates: []collections.VariantID{vFast}, Profile: testProfile(),
	}}, Models: m}, dims)
	if err != nil {
		t.Fatal(err)
	}
	cost := mx.sites[0][0].cost
	// popN = 100/10 = 10; time = (10+50+10+5)*1 = 75; footprint = 2*100.
	if math.Abs(cost[0]-75) > 1e-9 {
		t.Errorf("time cost = %v, want 75", cost[0])
	}
	if math.Abs(cost[1]-200) > 1e-9 {
		t.Errorf("footprint cost = %v, want 200", cost[1])
	}
}

func TestRunFindsTradeoffFront(t *testing.T) {
	res, err := Run(testProblem(3), Config{Seed: 1, Population: 16, Generations: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	// The bad baseline must be strictly dominated on both objectives by at
	// least one front member.
	dominated := false
	for _, a := range res.Front {
		if n, noWorse := BetterCount(a.Costs, res.Baseline.Costs); noWorse && n >= 2 {
			dominated = true
		}
		for _, v := range a.Variants {
			if v == vBad {
				t.Errorf("dominated variant %s on the front: %+v", vBad, a)
			}
		}
	}
	if !dominated {
		t.Errorf("no front member dominates the baseline on both objectives; baseline %v front %+v",
			res.Baseline.Costs, res.Front)
	}
	// Extremes: all-fast and all-small are both Pareto-optimal.
	var sawAllFast, sawAllSmall bool
	for _, a := range res.Front {
		allFast, allSmall := true, true
		for _, v := range a.Variants {
			allFast = allFast && v == vFast
			allSmall = allSmall && v == vSmall
		}
		sawAllFast = sawAllFast || allFast
		sawAllSmall = sawAllSmall || allSmall
	}
	if !sawAllFast || !sawAllSmall {
		t.Errorf("front misses an extreme: allFast=%v allSmall=%v", sawAllFast, sawAllSmall)
	}
	// Front is sorted by the first objective and mutually nondominated.
	for i := 1; i < len(res.Front); i++ {
		if res.Front[i].Costs[0] < res.Front[i-1].Costs[0] {
			t.Error("front not sorted by first objective")
		}
	}
	for i, a := range res.Front {
		for j, b := range res.Front {
			if i != j && Dominates(a.Costs, b.Costs) {
				t.Errorf("front member %d dominates member %d", i, j)
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	p := testProblem(4)
	a, err := Run(p, Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p, Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Front, b.Front) {
		t.Fatal("same seed produced different fronts")
	}
}

func TestRunSeedAssignmentsJoinThePopulation(t *testing.T) {
	p := testProblem(2)
	seeds := [][]collections.VariantID{{vSmall, vSmall}}
	res, err := Run(p, Config{Seed: 7, Population: 8, Generations: 5, Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range res.Front {
		if a.Variants[0] == vSmall && a.Variants[1] == vSmall {
			found = true
		}
	}
	if !found {
		t.Error("seeded all-small assignment missing from the front")
	}
}

func TestRunDropsUncoveredCandidates(t *testing.T) {
	p := testProblem(1)
	p.Sites[0].Candidates = append(p.Sites[0].Candidates, "test/unmodeled")
	res, err := Run(p, Config{Seed: 1, Population: 8, Generations: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Front {
		if a.Variants[0] == "test/unmodeled" {
			t.Fatal("unmodeled candidate assigned")
		}
	}
}

func TestRunErrorsOnUnmodeledBaseline(t *testing.T) {
	p := testProblem(1)
	p.Sites[0].Baseline = "test/unmodeled"
	p.Sites[0].Candidates = []collections.VariantID{"test/unmodeled", vFast}
	if _, err := Run(p, Config{Seed: 1}); err == nil {
		t.Fatal("unmodeled baseline accepted")
	}
}

func TestRunErrorsOnEmptyProblem(t *testing.T) {
	if _, err := Run(Problem{}, Config{}); err == nil {
		t.Fatal("empty problem accepted")
	}
	p := testProblem(1)
	p.Objectives = nil
	if _, err := Run(p, Config{}); err == nil {
		t.Fatal("no objectives accepted")
	}
}

func TestUncertaintyBreaksTies(t *testing.T) {
	// Two variants with identical costs; one carries variance. The dedup
	// keeps the certain one.
	m := perfmodel.NewModels()
	for _, op := range perfmodel.Ops() {
		m.Set("test/sure", op, perfmodel.DimTimeNS, constPoly(5))
		m.Set("test/sure", op, perfmodel.DimFootprint, constPoly(5))
		m.SetWithVar("test/shaky", op, perfmodel.DimTimeNS, constPoly(5), constPoly(4))
		m.SetWithVar("test/shaky", op, perfmodel.DimFootprint, constPoly(5), constPoly(4))
	}
	p := Problem{
		Models:     m,
		Objectives: []Objective{ObjTime, ObjMem},
		Sites: []Site{{
			Name:       "s",
			Baseline:   "test/shaky",
			Candidates: []collections.VariantID{"test/shaky", "test/sure"},
			Profile:    testProfile(),
		}},
	}
	res, err := Run(p, Config{Seed: 3, Population: 8, Generations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) != 1 {
		t.Fatalf("front size = %d, want 1 (identical costs)", len(res.Front))
	}
	if res.Front[0].Variants[0] != "test/sure" {
		t.Errorf("tie broken toward the uncertain variant: %+v", res.Front[0])
	}
	if res.Front[0].SEs[0] != 0 {
		t.Errorf("kept assignment carries uncertainty: %+v", res.Front[0])
	}
}
