package check

import (
	"testing"

	"repro/internal/collections"
	"repro/internal/core"
)

// monitoredHarnesses builds one harness per variant the default context
// pools offer, drawing every instance from an engine-managed context pinned
// to that variant. The engine's window is larger than any run draws, so
// every instance the harness sees is wrapped in a monitor and the oracle
// checks the monitor layer on top of the variant, not the bare variant.
func monitoredHarnesses(e *core.Engine) []Harness {
	pin := func(id collections.VariantID) []core.Option {
		return []core.Option{core.WithName("check:" + string(id)),
			core.WithDefaultVariant(id), core.WithCandidates(id)}
	}
	var hs []Harness
	for _, v := range collections.ListVariants[int]() {
		ctx := core.NewListContext[int](e, pin(v.ID)...)
		hs = append(hs, NewListHarness(v.ID, func(int) collections.List[int] { return ctx.NewList() }))
	}
	for _, v := range collections.SetVariants[int]() {
		ctx := core.NewSetContext[int](e, pin(v.ID)...)
		hs = append(hs, NewSetHarness(v.ID, func(int) collections.Set[int] { return ctx.NewSet() }))
	}
	for _, v := range collections.MapVariants[int, int]() {
		ctx := core.NewMapContext[int, int](e, pin(v.ID)...)
		hs = append(hs, NewMapHarness(v.ID, func(int) collections.Map[int, int] { return ctx.NewMap() }))
	}
	return hs
}

// TestMonitoredWrappersMatchOracle replays the differential sequences
// through monitored instances: a monitor must forward every operation and
// return exactly what the wrapped variant returns. Under `go test -cpu
// 1,2,4` the monitors record into 1, 2 and 4 counter stripes.
func TestMonitoredWrappersMatchOracle(t *testing.T) {
	e := core.NewEngineManual(core.Config{WindowSize: 1 << 20})
	defer e.Close()
	hs := monitoredHarnesses(e)
	if len(hs) < 3 {
		t.Fatalf("only %d monitored harnesses", len(hs))
	}
	for _, h := range hs {
		for _, seed := range []int64{1, 2, 3} {
			for _, p := range []Profile{Mixed, Growth} {
				if d := h.Check(seed, 400, p); d != nil {
					t.Errorf("monitored %v\nop sequence (replay through a context pinned to the variant):\n%s", d, d.Repro())
				}
			}
		}
	}
	reg := e.Metrics()
	created, monitored := reg.InstancesCreated.Load(), reg.InstancesMonitored.Load()
	if created == 0 || monitored != created {
		t.Fatalf("%d of %d instances were monitored, want all", monitored, created)
	}
}
