package tuner

import (
	"math"
	"testing"

	"repro/internal/collections"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/polyfit"
)

// uncertaintyModels builds three single-dimension variants: "u/high" with a
// large prediction variance, "u/low" with a tiny one, and "u/none" with no
// variance at all.
func uncertaintyModels() *perfmodel.Models {
	m := perfmodel.NewModels()
	cost := polyfit.Poly{Coeffs: []float64{5}}
	for id, variance := range map[collections.VariantID]float64{"u/high": 100, "u/low": 1} {
		for _, op := range perfmodel.Ops() {
			m.SetWithVar(id, op, perfmodel.DimTimeNS, cost, polyfit.Poly{Coeffs: []float64{variance}})
		}
	}
	for _, op := range perfmodel.Ops() {
		m.Set("u/none", op, perfmodel.DimTimeNS, cost)
	}
	return m
}

// The shadow planner measures the cells the models are least certain about
// first: unknown variance beats any finite score, and higher summed SE beats
// lower.
func TestPlanRanksCellsByModelUncertainty(t *testing.T) {
	e := core.NewEngineManual(core.Config{Models: uncertaintyModels(), Name: "plan"})
	defer e.Close()
	tn := New(Config{Engine: e})
	snaps := []core.SiteSnapshot{{
		Name:       "s",
		Candidates: []collections.VariantID{"u/low", "u/high", "u/none"},
		Profile:    core.WorkloadProfile{Instances: 5, MeanSize: 8, MaxSize: 8},
	}}
	cells, sites := tn.plan(snaps)
	if sites != 1 || len(cells) != 3 {
		t.Fatalf("plan yielded %d cells over %d sites, want 3/1", len(cells), sites)
	}
	want := []collections.VariantID{"u/none", "u/high", "u/low"}
	for i, id := range want {
		if cells[i].ID != id {
			t.Fatalf("cell order = %v, want %v", cells, want)
		}
	}
	if s := cellUncertainty(e.Models(), cells[0]); !math.IsInf(s, 1) {
		t.Errorf("variance-free cell score = %g, want +Inf", s)
	}
	if s := cellUncertainty(e.Models(), shadowCell{ID: "u/high", Size: 8}); s != 40 {
		t.Errorf("u/high score = %g, want 40 (4 ops × se 10)", s)
	}
	if s := cellUncertainty(e.Models(), shadowCell{ID: "missing", Size: 8}); !math.IsInf(s, 1) {
		t.Errorf("missing-curve cell score = %g, want +Inf", s)
	}
}
