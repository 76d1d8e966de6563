package core

import (
	"runtime"
	"testing"

	"repro/internal/collections"
	"repro/internal/perfmodel"
)

func TestSetContextWithSortedVariants(t *testing.T) {
	// Candidate pool: chained default plus the sorted-array extension.
	// A small, lookup-moderate workload under Ralloc must pick the sorted
	// array: lowest allocation, binary-searched lookups keep it inside
	// the 1.2x time cap.
	e := testEngine(Ralloc())
	defer e.Close()
	variants := append(collections.SetVariants[int](), collections.SortedSetVariants[int]()...)
	ctx := NewSetContextWithVariants(e, variants,
		WithDefaultVariant(collections.HashSetID),
		WithName("test:sorted"),
		WithCandidates(collections.HashSetID, collections.SortedArraySetID))
	for i := 0; i < 10; i++ {
		s := ctx.NewSet()
		for j := 0; j < 20; j++ {
			s.Add(j * 3)
		}
		for j := 0; j < 20; j++ {
			s.Contains(j * 2)
		}
	}
	runtime.GC()
	e.AnalyzeNow()
	if got := ctx.CurrentVariant(); got != collections.SortedArraySetID {
		t.Fatalf("variant = %s, want %s", got, collections.SortedArraySetID)
	}
	// The switched-to instances must really be sorted arrays.
	s := ctx.NewSet()
	for _, v := range []int{5, 1, 3} {
		s.Add(v)
	}
	var got []int
	s.ForEach(func(v int) bool { got = append(got, v); return true })
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("post-switch iteration not sorted: %v", got)
	}
}

func TestMapContextWithConcurrentVariants(t *testing.T) {
	// A context whose pool is {chained, sync, sharded}: under Rtime with
	// a sequential workload the engine must NOT move to the lock-paying
	// variants (their modeled time is strictly worse).
	e := testEngine(Rtime())
	defer e.Close()
	variants := append(collections.MapVariants[int, int](), collections.ConcurrentMapVariants[int, int]()...)
	ctx := NewMapContextWithVariants(e, variants,
		WithDefaultVariant(collections.HashMapID),
		WithCandidates(collections.HashMapID, collections.SyncMapID, collections.ShardedMapID))
	for i := 0; i < 10; i++ {
		m := ctx.NewMap()
		for j := 0; j < 200; j++ {
			m.Put(j, j)
		}
		for j := 0; j < 100; j++ {
			m.Get(j)
		}
	}
	runtime.GC()
	e.AnalyzeNow()
	if got := ctx.CurrentVariant(); got == collections.SyncMapID || got == collections.ShardedMapID {
		t.Fatalf("sequential workload switched to lock-paying variant %s", got)
	}
}

func TestListContextWithVariantsDefaultIsFirst(t *testing.T) {
	e := testEngine(Rtime())
	defer e.Close()
	variants := []collections.ListVariant[int]{
		{ID: collections.LinkedListID, New: func(int) collections.List[int] { return collections.NewLinkedList[int]() }},
		{ID: collections.ArrayListID, New: func(c int) collections.List[int] { return collections.NewArrayListCap[int](c) }},
	}
	ctx := NewListContextWithVariants(e, variants)
	if got := ctx.CurrentVariant(); got != collections.LinkedListID {
		t.Fatalf("default = %s, want first supplied variant", got)
	}
	if !isMonitoredList(ctx.NewList()) {
		t.Fatal("instances not monitored")
	}
}

func TestWithVariantsEmptyPanics(t *testing.T) {
	e := testEngine(Rtime())
	defer e.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("empty variant pool accepted")
		}
	}()
	NewSetContextWithVariants[int](e, nil)
}

func TestWithVariantsUnknownDefaultPanics(t *testing.T) {
	e := testEngine(Rtime())
	defer e.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("default outside the pool accepted")
		}
	}()
	NewListContextWithVariants(e, collections.ListVariants[int](),
		WithDefaultVariant("set/hash"))
}

func TestRenergyRule(t *testing.T) {
	r := Renergy()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.Criteria[0].Dimension != perfmodel.DimEnergy || r.Criteria[0].Threshold != 0.8 {
		t.Fatalf("Renergy C1 = %+v", r.Criteria[0])
	}
	if r.Criteria[1].Dimension != perfmodel.DimTimeNS || r.Criteria[1].Threshold != 1.2 {
		t.Fatalf("Renergy C2 = %+v", r.Criteria[1])
	}
}

func TestRenergySelectsLowPowerVariant(t *testing.T) {
	// Chained hash (power 1.3, boxed allocation) against the open fast
	// preset (1.08, flat): the energy rule must move off the chained set.
	e := testEngine(Renergy())
	defer e.Close()
	ctx := NewSetContext[int](e, WithName("test:energy"),
		WithCandidates(collections.HashSetID, collections.OpenHashSetFastID))
	for i := 0; i < 10; i++ {
		s := ctx.NewSet()
		for j := 0; j < 400; j++ {
			s.Add(j)
		}
		for j := 0; j < 100; j++ {
			s.Contains(j * 2)
		}
	}
	runtime.GC()
	e.AnalyzeNow()
	if got := ctx.CurrentVariant(); got != collections.OpenHashSetFastID {
		t.Fatalf("energy rule kept %s", got)
	}
	trs := e.Transitions()
	if len(trs) != 1 {
		t.Fatalf("transitions = %d", len(trs))
	}
	if r := trs[0].Ratios[perfmodel.DimEnergy]; r >= 0.8 {
		t.Fatalf("energy ratio = %g, want < 0.8", r)
	}
}

func TestEnergyAccumulatedInAggregate(t *testing.T) {
	agg := newCostAgg(perfmodel.Default(), setCandidates())
	agg.fold(Workload{Adds: 100, Contains: 50, MaxSize: 100})
	for i, v := range agg.candidates {
		if e := agg.total(i, perfmodel.DimEnergy); e <= 0 {
			t.Errorf("candidate %s accumulated no energy cost", v)
		}
	}
}
