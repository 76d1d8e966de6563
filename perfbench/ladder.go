package main

import (
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/collections"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/service"
)

// The ladder times one call per layer in isolation, at GOMAXPROCS 1 and 2,
// each over ladderReps repetitions interleaved across rows, so drift hits
// every row alike. ns/op is wall time over the operations of all
// goroutines, the convention of testing.B.RunParallel. Every repetition is
// printed; the metrics carry the median, minimum and maximum, because the
// monitored shared set has shown a bimodal cost at two goroutines.
const (
	ladderReps   = 5
	ladderSetLen = 1024
)

// ladderRow is one measured layer boundary.
type ladderRow struct {
	name  string
	procs []int
	ops   int // operations per repetition, over all goroutines
	// op runs n operations on one goroutine and reports whether every
	// result was the expected one.
	op func(n int) bool
}

func runLadder(rep *report) error {
	rows, cleanup, err := ladderRows()
	if err != nil {
		return err
	}
	defer cleanup()
	samples := make(map[string][]float64)
	var order []string
	for r := 0; r < ladderReps; r++ {
		for _, row := range rows {
			for _, p := range row.procs {
				key := fmt.Sprintf("ladder.%s.p%d", row.name, p)
				if r == 0 {
					order = append(order, key)
				}
				ns, ok := parallelNs(p, row.ops, row.op)
				rep.check(ok, "%s: a goroutine saw a wrong result", key)
				samples[key] = append(samples[key], ns)
			}
		}
	}
	var decide []float64
	for r := 0; r < ladderReps; r++ {
		decide = append(decide, core.DecisionOverheadNs(perfmodel.Default(), core.Rtime(), 100, 20000))
	}
	rep.set("ladder.decide_ns", "ns", median(decide), len(decide))
	rep.note("ladder ladder.decide_ns reps=%s", fmtReps(decide))
	for _, key := range order {
		xs := samples[key]
		lo, hi := minMax(xs)
		rep.set(key, "ns", median(xs), len(xs))
		rep.set(key+".min", "ns", lo, len(xs))
		rep.set(key+".max", "ns", hi, len(xs))
		rep.note("ladder %s reps=%s", key, fmtReps(xs))
	}
	return nil
}

func fmtReps(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// parallelNs runs total operations split over procs goroutines at
// GOMAXPROCS procs and returns wall ns per operation and whether every
// goroutine saw only expected results.
func parallelNs(procs, total int, op func(n int) bool) (ns float64, ok bool) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	per := total / procs
	oks := make([]bool, procs)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			oks[w] = op(per)
		}()
	}
	wg.Wait()
	ns = float64(time.Since(start).Nanoseconds()) / float64(per*procs)
	for _, o := range oks {
		if !o {
			return ns, false
		}
	}
	return ns, true
}

// containsLoop probes s with half hits and half misses and one full
// traversal every 256 operations; the set holds 0..ladderSetLen-1, so
// exactly the probes below ladderSetLen hit.
func containsLoop(s collections.Set[int], n int) bool {
	hits, want := 0, 0
	for i := 0; i < n; i++ {
		v := i & (2*ladderSetLen - 1)
		if s.Contains(v) {
			hits++
		}
		if v < ladderSetLen {
			want++
		}
		if i&255 == 255 {
			s.ForEach(func(int) bool { return true })
		}
	}
	return hits == want
}

// ladderRows builds the rows and the engines and service behind them; the
// returned cleanup closes those.
func ladderRows() ([]ladderRow, func(), error) {
	both := []int{1, 2}
	bare := collections.NewHashSet[int]()
	for i := 0; i < ladderSetLen; i++ {
		bare.Add(i)
	}

	// A context with a window larger than the run monitors its first
	// instance, which is the shared set the monitored row probes.
	monReg := obs.NewRegistry()
	monEngine := core.NewEngineManual(core.Config{WindowSize: 1 << 20, Metrics: monReg})
	mon := core.NewSetContext[int](monEngine, core.WithName("ladder/monitored")).NewSet()
	for i := 0; i < ladderSetLen; i++ {
		mon.Add(i)
	}

	// A one-instance window is full after the first creation, so every
	// later creation takes the unmonitored fast path.
	createEngine := core.NewEngineManual(core.Config{WindowSize: 1, Metrics: obs.NewRegistry()})
	createCtx := core.NewSetContext[int](createEngine, core.WithName("ladder/create"))
	createCtx.NewSet()

	svc, err := service.New(engineConfig(obs.NewRegistry()))
	if err != nil {
		monEngine.Close()
		createEngine.Close()
		return nil, nil, err
	}
	cleanup := func() {
		monEngine.Close()
		createEngine.Close()
		svc.Engine().Close()
	}
	h := svc.Handler()
	for i := 0; i < 16; i++ {
		if code, body := serveOnce(h, fmt.Sprintf("/set/add?key=ladder&m=%d&cnt=64", i*64)); code != http.StatusOK || body != "1\n" {
			cleanup()
			return nil, nil, fmt.Errorf("ladder preload: status %d body %q", code, body)
		}
	}
	if monReg.InstancesMonitored.Load() != 1 {
		cleanup()
		return nil, nil, fmt.Errorf("ladder: the shared set is not monitored")
	}

	rows := []ladderRow{
		{name: "bare_contains_ns", procs: both, ops: 4 << 20,
			op: func(n int) bool { return containsLoop(bare, n) }},
		{name: "monitored_contains_ns", procs: both, ops: 2 << 20,
			op: func(n int) bool { return containsLoop(mon, n) }},
		{name: "create_ns", procs: both, ops: 256 << 10,
			op: func(n int) bool {
				ok := true
				for i := 0; i < n; i++ {
					ok = createCtx.NewSet().Len() == 0 && ok
				}
				return ok
			}},
		{name: "handler_ns", procs: both, ops: 128 << 10,
			op: func(n int) bool {
				req, err := http.NewRequest(http.MethodGet, "/set/has?key=ladder&m=640", nil)
				if err != nil {
					return false
				}
				rec := &recorder{hdr: make(http.Header)}
				ok := true
				for i := 0; i < n; i++ {
					rec.code, rec.body = 0, rec.body[:0]
					h.ServeHTTP(rec, req)
					ok = rec.code == http.StatusOK && string(rec.body) == "1\n" && ok
				}
				return ok
			}},
	}
	return rows, cleanup, nil
}

// serveOnce sends one request through h and returns status and body.
func serveOnce(h http.Handler, target string) (int, string) {
	req, err := http.NewRequest(http.MethodGet, target, nil)
	if err != nil {
		return 0, err.Error()
	}
	rec := &recorder{hdr: make(http.Header)}
	h.ServeHTTP(rec, req)
	return rec.code, string(rec.body)
}
