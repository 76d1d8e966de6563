package main

import (
	"runtime"
	"testing"

	"repro/internal/check"
	"repro/internal/collections"
	"repro/internal/core"
	"repro/internal/perfmodel"
)

// TestBitSetSemantics checks the Set contract of the custom variant.
func TestBitSetSemantics(t *testing.T) {
	s := NewBitSet(0)
	for _, v := range []int{0, 7, 64, 1000, -3} {
		if !s.Add(v) {
			t.Fatalf("Add(%d) = false on first insert", v)
		}
		if s.Add(v) {
			t.Fatalf("Add(%d) = true on duplicate insert", v)
		}
		if !s.Contains(v) {
			t.Fatalf("Contains(%d) = false after Add", v)
		}
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
	if s.Contains(1) || s.Contains(-1) {
		t.Fatal("Contains reports absent values present")
	}
	if !s.Remove(64) || s.Remove(64) {
		t.Fatal("Remove(64) did not toggle membership exactly once")
	}
	seen := map[int]bool{}
	s.ForEach(func(v int) bool { seen[v] = true; return true })
	if len(seen) != s.Len() {
		t.Fatalf("ForEach visited %d values, Len = %d", len(seen), s.Len())
	}
	stopped := 0
	s.ForEach(func(int) bool { stopped++; return false })
	if stopped != 1 {
		t.Fatalf("ForEach ignored early stop (visited %d)", stopped)
	}
	if _, ok := any(s).(collections.Sizer); !ok {
		t.Fatal("bitSet does not implement collections.Sizer")
	}
	s.Clear()
	if s.Len() != 0 || s.Contains(0) {
		t.Fatal("Clear left elements behind")
	}
}

// TestCustomVariantInCatalog pins that registration from outside internal/
// makes the variant visible to every consumer surface of the catalog: the
// candidate pools, the default models, and the benchmark targets.
func TestCustomVariantInCatalog(t *testing.T) {
	found := false
	for _, v := range collections.SetVariants[int]() {
		if v.ID == BitSetID {
			found = true
			s := v.New(8)
			s.Add(3)
			if !s.Contains(3) {
				t.Fatal("catalog factory built a broken set")
			}
		}
	}
	if !found {
		t.Fatal("set/bitset missing from SetVariants[int]")
	}

	m := perfmodel.Default()
	for _, op := range perfmodel.Ops() {
		if !m.Has(BitSetID, op, perfmodel.DimTimeNS) {
			t.Fatalf("default models lack %s/%s time curve", BitSetID, op)
		}
	}

	if _, ok := collections.BenchTargetFor(BitSetID); !ok {
		t.Fatal("set/bitset has no benchmark target")
	}
}

// TestCustomVariantChecked pins that a user-registered variant is pulled
// into the differential checker automatically: check.Harnesses enumerates
// the live catalog, so registering set/bitset in init() is all it takes for
// the oracle suite to verify it against the reference model.
func TestCustomVariantChecked(t *testing.T) {
	hs, uncovered := check.Harnesses()
	for _, id := range uncovered {
		if id == BitSetID {
			t.Fatal("set/bitset registered but not resolvable by the checker")
		}
	}
	var h *check.Harness
	for i := range hs {
		if hs[i].ID == BitSetID {
			h = &hs[i]
			break
		}
	}
	if h == nil {
		t.Fatal("set/bitset missing from check.Harnesses()")
	}
	for _, p := range []check.Profile{check.Mixed, check.Growth} {
		for seed := int64(1); seed <= 3; seed++ {
			if d := h.Check(seed, 400, p); d != nil {
				t.Errorf("%v\nrepro:\n%s", d, d.Repro())
			}
		}
	}
}

// TestCustomVariantSelectedEndToEnd is the acceptance test of the ISSUE's
// tentpole: a user-registered variant must flow registry → models →
// candidates → selection with no framework changes. A contains-heavy
// workload must make the engine switch the context to set/bitset.
func TestCustomVariantSelectedEndToEnd(t *testing.T) {
	engine := core.NewEngineManual(core.Config{Rule: core.Rtime(), Name: "customvariant-test"})
	defer engine.Close()
	ctx := core.NewSetContext[int](engine, core.WithName("customvariant-test:set"))

	for round := 0; round < 5 && ctx.CurrentVariant() != BitSetID; round++ {
		for i := 0; i < 150; i++ {
			s := ctx.NewSet()
			for j := 0; j < 400; j++ {
				s.Add(j * 2)
			}
			for j := 0; j < 800; j++ {
				s.Contains(j)
			}
		}
		runtime.GC()
		engine.AnalyzeNow()
	}
	if got := ctx.CurrentVariant(); got != BitSetID {
		t.Fatalf("engine selected %s, want %s", got, BitSetID)
	}
}

// TestCustomVariantBenchmarkable runs the empirical model builder over the
// custom variant with a tiny plan — the same driver cmd/perfmodel uses.
func TestCustomVariantBenchmarkable(t *testing.T) {
	target, ok := collections.BenchTargetFor(BitSetID)
	if !ok {
		t.Fatal("set/bitset has no benchmark target")
	}
	b := perfmodel.NewBuilder(perfmodel.Plan{
		Sizes: []int{10, 50, 100}, Ops: perfmodel.Ops(), Degree: 1, WarmupIters: 1,
	})
	m, err := b.Build([]collections.BenchTarget{target})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for _, op := range perfmodel.Ops() {
		if !m.Has(BitSetID, op, perfmodel.DimTimeNS) {
			t.Fatalf("built models lack %s/%s time curve", BitSetID, op)
		}
	}
	if !m.Has(BitSetID, perfmodel.OpPopulate, perfmodel.DimFootprint) {
		t.Fatal("built models lack the footprint curve (Sizer not picked up)")
	}
}

// TestModelHotSwapKeepsSelection pins Engine.SetModels against a live
// context: swapping in a refit model set mid-run must not disturb the
// selected variant, and SetModels(nil) must restore the analytic defaults.
func TestModelHotSwapKeepsSelection(t *testing.T) {
	engine := core.NewEngineManual(core.Config{Rule: core.Rtime(), Name: "customvariant-swap"})
	defer engine.Close()
	ctx := core.NewSetContext[int](engine, core.WithName("customvariant-swap:set"))

	engine.SetModels(perfmodel.DefaultDegree(3))
	for round := 0; round < 5 && ctx.CurrentVariant() != BitSetID; round++ {
		for i := 0; i < 150; i++ {
			s := ctx.NewSet()
			for j := 0; j < 400; j++ {
				s.Add(j * 2)
			}
			for j := 0; j < 800; j++ {
				s.Contains(j)
			}
		}
		runtime.GC()
		engine.AnalyzeNow()
	}
	if got := ctx.CurrentVariant(); got != BitSetID {
		t.Fatalf("after hot swap the engine selected %s, want %s", got, BitSetID)
	}
	engine.SetModels(nil)
	if engine.Models() == nil {
		t.Fatal("SetModels(nil) left a nil model handle")
	}
}
