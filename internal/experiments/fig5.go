package experiments

import (
	"fmt"
	"io"
	"runtime"

	"repro/internal/apps"
	"repro/internal/collections"
	"repro/internal/core"
	"repro/internal/workload"
)

// This file regenerates Figure 5: the single-phase micro-benchmark. Each
// point of the sweep creates and populates many collection instances and
// runs 100 lookups per instance; CollectionSwitch (starting from the JDK
// default) is compared against the fixed JDK-like variant. Panels a–c use
// Rtime and report execution time; panels d–e use Ralloc and report bytes
// allocated. The marker column indicates the variant the context switched
// to at that size, matching the figure's transition markers.

// Fig5Point is one x-position of a Figure 5 panel.
type Fig5Point struct {
	Size int
	// Switch/Baseline are the measured costs of the CollectionSwitch run
	// and the fixed-variant run.
	SwitchTime, BaselineTime   float64 // seconds
	SwitchAlloc, BaselineAlloc uint64  // bytes
	// SelectedVariant is the variant in use at the end of the
	// CollectionSwitch run ("" if it never switched).
	SelectedVariant collections.VariantID
}

// Fig5Panel is one sub-figure (a–e).
type Fig5Panel struct {
	Name     string // e.g. "5a: list time vs ArrayList"
	Rule     string
	Baseline collections.VariantID
	Points   []Fig5Point
}

// newFig5Engine builds the manual engine used for one single-phase run.
func newFig5Engine(rule core.Rule, name string, o apps.Obs) *core.Engine {
	o.Label = name
	return o.NewEngine(core.Config{WindowSize: 100, FinishedRatio: 0.6, Rule: rule})
}

// hook ticks the engine the way the background analyzer and the JVM GC
// would: collect dead monitors, then analyze.
func engineHook(e *core.Engine) func() {
	return func() {
		runtime.GC()
		e.AnalyzeNow()
	}
}

// RunFig5 measures all five panels at the given scale.
func RunFig5(sc Scale) []Fig5Panel {
	return RunFig5Obs(sc, apps.Obs{})
}

// RunFig5Obs is RunFig5 with observability wiring on every engine.
func RunFig5Obs(sc Scale, o apps.Obs) []Fig5Panel {
	// The sweep plots selection from the default variant: no warm start.
	o.WarmStart, o.Snapshots = nil, nil
	panels := []Fig5Panel{
		{Name: "5a: Lists, Rtime, time vs ArrayList", Rule: "Rtime", Baseline: collections.ArrayListID},
		{Name: "5b: Sets, Rtime, time vs HashSet", Rule: "Rtime", Baseline: collections.HashSetID},
		{Name: "5c: Maps, Rtime, time vs HashMap", Rule: "Rtime", Baseline: collections.HashMapID},
		{Name: "5d: Sets, Ralloc, allocation vs HashSet", Rule: "Ralloc", Baseline: collections.HashSetID},
		{Name: "5e: Maps, Ralloc, allocation vs HashMap", Rule: "Ralloc", Baseline: collections.HashMapID},
	}
	every := sc.Fig5Instances / 20
	for _, size := range sc.Fig5Sizes {
		// Panel a: lists under Rtime.
		panels[0].Points = append(panels[0].Points,
			fig5List(core.Rtime(), size, sc.Fig5Instances, sc.Fig5ListLookups, every, o))
		// Panel b/d: sets under Rtime and Ralloc.
		panels[1].Points = append(panels[1].Points,
			fig5Set(core.Rtime(), size, sc.Fig5Instances, sc.Fig5Lookups, every, o))
		panels[3].Points = append(panels[3].Points,
			fig5Set(core.Ralloc(), size, sc.Fig5Instances, sc.Fig5Lookups, every, o))
		// Panel c/e: maps under Rtime and Ralloc.
		panels[2].Points = append(panels[2].Points,
			fig5Map(core.Rtime(), size, sc.Fig5Instances, sc.Fig5Lookups, every, o))
		panels[4].Points = append(panels[4].Points,
			fig5Map(core.Ralloc(), size, sc.Fig5Instances, sc.Fig5Lookups, every, o))
	}
	return panels
}

func fig5List(rule core.Rule, size, instances, lookups, every int, o apps.Obs) Fig5Point {
	e := newFig5Engine(rule, fmt.Sprintf("fig5a@%d", size), o)
	defer e.Close()
	ctx := core.NewListContext[int](e, core.WithName(fmt.Sprintf("fig5a@%d", size)))
	swRes, _ := workload.SinglePhaseListHook(ctx.NewList, instances, size, lookups, int64(size), every, engineHook(e))
	baseRes, _ := workload.SinglePhaseList(func() collections.List[int] {
		return collections.NewArrayList[int]()
	}, instances, size, lookups, int64(size))
	p := Fig5Point{
		Size:          size,
		SwitchTime:    swRes.Elapsed.Seconds(),
		BaselineTime:  baseRes.Elapsed.Seconds(),
		SwitchAlloc:   swRes.AllocBytes,
		BaselineAlloc: baseRes.AllocBytes,
	}
	if v := ctx.CurrentVariant(); v != collections.ArrayListID {
		p.SelectedVariant = v
	}
	return p
}

func fig5Set(rule core.Rule, size, instances, lookups, every int, o apps.Obs) Fig5Point {
	e := newFig5Engine(rule, fmt.Sprintf("fig5set@%d", size), o)
	defer e.Close()
	ctx := core.NewSetContext[int](e, core.WithName(fmt.Sprintf("fig5set@%d", size)))
	swRes, _ := workload.SinglePhaseSetHook(ctx.NewSet, instances, size, lookups, int64(size), every, engineHook(e))
	baseRes, _ := workload.SinglePhaseSet(func() collections.Set[int] {
		return collections.NewHashSet[int]()
	}, instances, size, lookups, int64(size))
	p := Fig5Point{
		Size:          size,
		SwitchTime:    swRes.Elapsed.Seconds(),
		BaselineTime:  baseRes.Elapsed.Seconds(),
		SwitchAlloc:   swRes.AllocBytes,
		BaselineAlloc: baseRes.AllocBytes,
	}
	if v := ctx.CurrentVariant(); v != collections.HashSetID {
		p.SelectedVariant = v
	}
	return p
}

func fig5Map(rule core.Rule, size, instances, lookups, every int, o apps.Obs) Fig5Point {
	e := newFig5Engine(rule, fmt.Sprintf("fig5map@%d", size), o)
	defer e.Close()
	ctx := core.NewMapContext[int, int](e, core.WithName(fmt.Sprintf("fig5map@%d", size)))
	swRes, _ := workload.SinglePhaseMapHook(ctx.NewMap, instances, size, lookups, int64(size), every, engineHook(e))
	baseRes, _ := workload.SinglePhaseMap(func() collections.Map[int, int] {
		return collections.NewHashMap[int, int]()
	}, instances, size, lookups, int64(size))
	p := Fig5Point{
		Size:          size,
		SwitchTime:    swRes.Elapsed.Seconds(),
		BaselineTime:  baseRes.Elapsed.Seconds(),
		SwitchAlloc:   swRes.AllocBytes,
		BaselineAlloc: baseRes.AllocBytes,
	}
	if v := ctx.CurrentVariant(); v != collections.HashMapID {
		p.SelectedVariant = v
	}
	return p
}

// PrintFig5 renders the Figure 5 series.
func PrintFig5(w io.Writer, panels []Fig5Panel) {
	for _, panel := range panels {
		header(w, "Figure "+panel.Name)
		alloc := panel.Rule == "Ralloc"
		if alloc {
			fmt.Fprintf(w, "%6s %15s %15s %8s  %s\n", "size", "Switch(MB)", "Baseline(MB)", "ratio", "selected variant")
		} else {
			fmt.Fprintf(w, "%6s %15s %15s %8s  %s\n", "size", "Switch(s)", "Baseline(s)", "ratio", "selected variant")
		}
		for _, p := range panel.Points {
			var sw, base float64
			if alloc {
				sw = float64(p.SwitchAlloc) / (1024 * 1024)
				base = float64(p.BaselineAlloc) / (1024 * 1024)
			} else {
				sw = p.SwitchTime
				base = p.BaselineTime
			}
			ratio := 0.0
			if base > 0 {
				ratio = sw / base
			}
			sel := string(p.SelectedVariant)
			if sel == "" {
				sel = "(kept default)"
			}
			fmt.Fprintf(w, "%6d %15.3f %15.3f %8.2f  %s\n", p.Size, sw, base, ratio, sel)
		}
	}
}
