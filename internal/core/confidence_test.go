package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/collections"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/polyfit"
)

// flappingModels builds a two-variant model set with opposing op costs —
// "test/a" iterates expensively and probes cheaply, "test/b" the reverse —
// so a workload alternating between iterate-heavy and contains-heavy rounds
// makes the point-estimate rule flip the winner every round. Every curve
// carries a large prediction variance (se 50 per call), so a confidence-armed
// engine sees the candidates' cost intervals overlap massively.
func flappingModels() *perfmodel.Models {
	m := perfmodel.NewModels()
	variance := polyfit.Poly{Coeffs: []float64{2500}}
	set := func(id collections.VariantID, op perfmodel.Op, cost float64) {
		m.SetWithVar(id, op, perfmodel.DimTimeNS, polyfit.Poly{Coeffs: []float64{cost}}, variance)
	}
	for _, id := range []collections.VariantID{"test/a", "test/b"} {
		set(id, perfmodel.OpPopulate, 1)
		set(id, perfmodel.OpMiddle, 1)
	}
	set("test/a", perfmodel.OpContains, 1)
	set("test/a", perfmodel.OpIterate, 10)
	set("test/b", perfmodel.OpContains, 10)
	set("test/b", perfmodel.OpIterate, 1)
	return m
}

// runFlapping drives eight window closes over the flapping workload against
// an engine at the given confidence level and returns the engine, the event
// collector and the decision records (one per round).
func runFlapping(t *testing.T, level float64) (*Engine, *obs.Collector, []DecisionRecord) {
	t.Helper()
	col := obs.NewCollector()
	e := NewEngineManual(Config{
		WindowSize: 10, Rule: Rtime(), Models: flappingModels(),
		ConfidenceLevel: level, Name: "flap", Sink: col,
	})
	rng := rand.New(rand.NewSource(42))
	cands := []collections.VariantID{"test/a", "test/b"}
	current := cands[0]
	var recs []DecisionRecord
	for round := 0; round < 8; round++ {
		agg := newCostAggDims(e.Models(), cands, e.ruleDims)
		agg.setConfidence(e.confZ)
		for i := 0; i < 10; i++ {
			w := Workload{Adds: 10, MaxSize: 10}
			jitter := int64(rng.Intn(10))
			if round%2 == 0 {
				w.Iterates, w.Contains = 100+jitter, 5+jitter
			} else {
				w.Contains, w.Iterates = 100+jitter, 5+jitter
			}
			agg.fold(w)
		}
		next, rec := e.closeWindow(windowClose{
			name: "flap:site", agg: agg, current: current, round: round,
			threshold: 50, finished: agg.folded, record: true,
		})
		if rec == nil {
			t.Fatalf("round %d: no decision record", round)
		}
		recs = append(recs, *rec)
		current = next
	}
	return e, col, recs
}

// Without the confidence gate the alternating workload flips the variant
// every round; with it, the overlapping cost intervals hold the site still
// and every withheld switch is counted, recorded and emitted.
func TestConfidenceGateSuppressesFlapping(t *testing.T) {
	ungated, _, _ := runFlapping(t, 0)
	if n := len(ungated.Transitions()); n < 3 {
		t.Fatalf("ungated engine made %d transitions, want >= 3 (flapping)", n)
	}
	if got := ungated.Metrics().SwitchesSuppressedCI.Load(); got != 0 {
		t.Errorf("ungated engine suppressed %d switches, want 0", got)
	}

	gated, col, recs := runFlapping(t, 0.95)
	if n := len(gated.Transitions()); n > 1 {
		t.Errorf("gated engine made %d transitions, want <= 1", n)
	}
	suppressed := gated.Metrics().SwitchesSuppressedCI.Load()
	if suppressed == 0 {
		t.Fatal("gated engine counted no suppressed switches")
	}

	// The withheld rounds surface as ci_overlap records naming the blocked
	// candidate, with the positive point margin it would have switched by.
	overlaps := 0
	for _, rec := range recs {
		if rec.Outcome != OutcomeCIOverlap {
			continue
		}
		overlaps++
		if rec.Winner != "test/b" {
			t.Errorf("ci_overlap winner = %s, want test/b", rec.Winner)
		}
		if rec.Margin <= 0 {
			t.Errorf("ci_overlap margin = %g, want > 0 (point estimate cleared)", rec.Margin)
		}
		for _, est := range rec.Candidates {
			if est.Variant != "test/b" {
				continue
			}
			if est.Eligible {
				t.Error("suppressed candidate still marked eligible")
			}
			if len(est.RatiosHi) == 0 || len(est.CostsLo) == 0 || len(est.CostsHi) == 0 {
				t.Error("suppressed candidate estimate missing interval fields")
			}
			if rhi := est.RatiosHi[perfmodel.DimTimeNS]; rhi <= 0.8 {
				t.Errorf("suppressed candidate upper ratio %g, want > threshold 0.8", rhi)
			}
		}
	}
	if int64(overlaps) != suppressed {
		t.Errorf("%d ci_overlap records vs %d counted suppressions", overlaps, suppressed)
	}

	// And as switch_suppressed events on the sink.
	events := 0
	for _, ev := range col.Events() {
		ss, ok := ev.(obs.SwitchSuppressed)
		if !ok {
			continue
		}
		events++
		if ss.Context != "flap:site" || ss.From != "test/a" || ss.To != "test/b" || ss.Level != 0.95 {
			t.Errorf("switch_suppressed event = %+v", ss)
		}
	}
	if int64(events) != suppressed {
		t.Errorf("%d switch_suppressed events vs %d counted suppressions", events, suppressed)
	}
}

// decide and decideExplain must reach the identical decision with explain on
// or off, armed or not — and arming an aggregate over variance-free models
// must not change any decision (zero-width intervals degenerate to the point
// gate).
func TestDecideEquivalenceAcrossExplainAndConfidence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	models := perfmodel.Default()
	cands := setCandidates()
	for trial := 0; trial < 300; trial++ {
		rule := Rtime()
		if trial%3 == 0 {
			rule = Ralloc()
		}
		fold := func(a *costAgg) {
			r := rand.New(rand.NewSource(int64(trial)))
			for i := 0; i < 1+r.Intn(20); i++ {
				size := int64(1 + r.Intn(1000))
				a.fold(Workload{
					Adds: size * int64(1+r.Intn(3)), Contains: int64(r.Intn(2000)),
					Iterates: int64(r.Intn(50)), Middles: int64(r.Intn(50)), MaxSize: size,
				})
			}
		}
		plain := newCostAgg(models, cands)
		armed := newCostAgg(models, cands)
		armed.setConfidence(1.96)
		fold(plain)
		fold(armed)
		current := cands[rng.Intn(len(cands))]

		d1 := decide(plain, current, rule, 4, 50)
		d2, ests, _, _ := decideExplain(plain, current, rule, 4, 50, true)
		if d1.ok != d2.ok || d1.switchTo != d2.switchTo || d1.suppressedTo != d2.suppressedTo {
			t.Fatalf("trial %d: explain changed the decision: %+v vs %+v", trial, d1, d2)
		}
		if len(ests) != len(cands) {
			t.Fatalf("trial %d: %d estimates for %d candidates", trial, len(ests), len(cands))
		}
		d3 := decide(armed, current, rule, 4, 50)
		if d1.ok != d3.ok || d1.switchTo != d3.switchTo {
			t.Fatalf("trial %d: variance-free arming changed the decision: %+v vs %+v", trial, d1, d3)
		}
		if d3.suppressedTo != "" {
			t.Fatalf("trial %d: suppression without variance: %+v", trial, d3)
		}
		for dim, r := range d1.ratios {
			if d3.ratios[dim] != r {
				t.Fatalf("trial %d: ratio drift on %s: %g vs %g", trial, dim, r, d3.ratios[dim])
			}
		}
	}
}

// An unarmed aggregate never allocates interval state and estimates carry no
// interval fields.
func TestUnarmedAggregateStaysLegacy(t *testing.T) {
	agg := newCostAggDims(flappingModels(), []collections.VariantID{"test/a", "test/b"},
		[]perfmodel.Dimension{perfmodel.DimTimeNS})
	agg.setConfidence(0)
	agg.fold(Workload{Adds: 10, Contains: 100, MaxSize: 10})
	if agg.se != nil || agg.z != 0 {
		t.Fatal("setConfidence(0) armed the aggregate")
	}
	_, ests, _, _ := decideExplain(agg, "test/a", Rtime(), 4, 50, true)
	for _, est := range ests {
		if est.CostsLo != nil || est.CostsHi != nil || est.RatiosHi != nil {
			t.Fatalf("unarmed estimate carries interval fields: %+v", est)
		}
	}
}

// ConfidenceLevel outside [0, 1) is clamped and reported.
func TestConfidenceLevelClamped(t *testing.T) {
	col := obs.NewCollector()
	e := NewEngineManual(Config{ConfidenceLevel: -0.5, Sink: col, Name: "neg"})
	if got := e.Config().ConfidenceLevel; got != 0 {
		t.Errorf("negative level clamped to %g, want 0", got)
	}
	if e.confZ != 0 {
		t.Errorf("confZ = %g after clamp to 0, want 0", e.confZ)
	}
	e2 := NewEngineManual(Config{ConfidenceLevel: 1.5, Name: "big"})
	if got := e2.Config().ConfidenceLevel; got != 0.999 {
		t.Errorf("level 1.5 clamped to %g, want 0.999", got)
	}
	found := false
	for _, ev := range col.Events() {
		if cl, ok := ev.(obs.ConfigClamped); ok && cl.Field == "ConfidenceLevel" {
			found = true
			if cl.From != -0.5 || cl.To != 0 {
				t.Errorf("clamp event = %+v, want From=-0.5 To=0", cl)
			}
		}
	}
	if !found {
		t.Error("no ConfigClamped event for ConfidenceLevel")
	}
	// The quantile matches the standard normal: level 0.95 → z ≈ 1.9600.
	e3 := NewEngineManual(Config{ConfidenceLevel: 0.95, Name: "z"})
	if z := e3.confZ; math.Abs(z-1.959964) > 1e-4 {
		t.Errorf("confZ(0.95) = %g, want ~1.96", z)
	}
}

// Armed estimates derive their interval from the accumulated totals: lower
// bound max(0, TC−z·SE) clamped once on the sum, upper bound TC+z·SE, with
// SE the correlated sum Σ count·se. On "test/a" only the contains term's own
// lower bound would go negative (10 − 1.96·8); clamping it per op would
// narrow the interval to [99.04, 359.76] instead of [42.24, 359.76].
func TestArmedBoundsDeriveFromTotals(t *testing.T) {
	m := perfmodel.NewModels()
	set := func(id collections.VariantID, op perfmodel.Op, cost, se float64) {
		m.SetWithVar(id, op, perfmodel.DimTimeNS,
			polyfit.Poly{Coeffs: []float64{cost}}, polyfit.Poly{Coeffs: []float64{se * se}})
	}
	for _, id := range []collections.VariantID{"test/a", "test/b"} {
		set(id, perfmodel.OpPopulate, 1, 0)
		set(id, perfmodel.OpMiddle, 1, 0)
	}
	set("test/a", perfmodel.OpContains, 10, 8)
	set("test/a", perfmodel.OpIterate, 100, 1)
	set("test/b", perfmodel.OpContains, 2, 30)
	set("test/b", perfmodel.OpIterate, 50, 1)
	const z = 1.96
	agg := newCostAggDims(m, []collections.VariantID{"test/a", "test/b"},
		[]perfmodel.Dimension{perfmodel.DimTimeNS})
	agg.setConfidence(z)
	// One population of size 10, ten probes, one iteration.
	agg.fold(Workload{Adds: 10, Contains: 10, Iterates: 1, MaxSize: 10})

	want := map[collections.VariantID]struct{ tc, se float64 }{
		"test/a": {1 + 10*10 + 100, 10*8 + 1},
		"test/b": {1 + 10*2 + 50, 10*30 + 1},
	}
	_, ests, _, _ := decideExplain(agg, "test/a", Rtime(), 4, 50, true)
	bounds := map[collections.VariantID][2]float64{}
	for _, est := range ests {
		w := want[est.Variant]
		lo, hi := math.Max(0, w.tc-z*w.se), w.tc+z*w.se
		dim := perfmodel.DimTimeNS
		if got := est.Costs[dim]; math.Abs(got-w.tc) > 1e-9 {
			t.Errorf("%s: TC = %g, want %g", est.Variant, got, w.tc)
		}
		if got := est.CostsLo[dim]; math.Abs(got-lo) > 1e-9 {
			t.Errorf("%s: CostsLo = %g, want max(0, TC−z·SE) = %g", est.Variant, got, lo)
		}
		if got := est.CostsHi[dim]; math.Abs(got-hi) > 1e-9 {
			t.Errorf("%s: CostsHi = %g, want TC+z·SE = %g", est.Variant, got, hi)
		}
		bounds[est.Variant] = [2]float64{lo, hi}
	}
	for _, est := range ests {
		if est.Variant != "test/b" {
			continue
		}
		wantRatio := bounds["test/b"][1] / bounds["test/a"][0]
		if got := est.RatiosHi[perfmodel.DimTimeNS]; math.Abs(got-wantRatio) > 1e-9*wantRatio {
			t.Errorf("upper ratio = %g, want hi(b)/lo(a) = %g", got, wantRatio)
		}
	}
}
