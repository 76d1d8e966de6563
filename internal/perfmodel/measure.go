package perfmodel

import (
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/collections"
)

// This file is the measurement kernel of Section 4.1.2: the one protocol
// both the offline model builder (Builder) and the online tuner time a
// variant with. It plays the role JMH and its GC profiler play in the paper:
// unmeasured warm-up calls, then measured batches averaged into ns/op, with
// allocation read from the runtime's counters.

// batchSliceNs is the shortest batch the kernel trusts: long enough to
// dominate timer overhead, short enough that deadline overshoot stays small.
const batchSliceNs = 200_000 // 200µs

// OpSample is one operation's measurement in a cell.
type OpSample struct {
	// NS is the mean time per call in nanoseconds (populate: per full
	// population to the cell's size).
	NS float64
	// SE is the standard error of NS from the spread of the trusted
	// batches; 0 when fewer than two fit.
	SE float64
	// AllocB is the whole bytes allocated per call; 0 when the cell has a
	// deadline (see kernel.allocated).
	AllocB float64
}

// CellSample is the yield of one measured (variant, size) cell: whatever
// operations were measured before the deadline, plus the footprint of the
// instance the operations ran on.
type CellSample struct {
	Ops         map[Op]OpSample
	Footprint   float64
	FootprintOK bool
}

// cellKeys returns the uniform data of Table 3 for one cell: n distinct
// shuffled keys from [0, 2n), so half the probe domain is present, plus 256
// probes drawn from that domain.
func cellKeys(n int) (keys, probes []int) {
	n = max(n, 1)
	r := rand.New(rand.NewSource(1))
	keys = r.Perm(n * 2)[:n]
	probes = make([]int, 256)
	for i := range probes {
		probes[i] = r.Intn(n * 2)
	}
	return keys, probes
}

// MeasureCell measures the four critical operations of one variant at one
// size through its bench adapter: populate, then contains, iterate and
// middle on the last populated instance, then that instance's footprint.
// Each operation gets warmup untimed calls, then a geometric ramp up to a
// batch of at least 200µs, then up to batches trusted batches (values below
// 1 mean one). A zero deadline means none; otherwise no batch starts past
// it, so the cell overruns the deadline by at most one batch, and the
// operations it left unmeasured are absent from Ops (all of them when the
// deadline was already spent).
func MeasureCell(ad collections.BenchAdapter, size, warmup, batches int, deadline time.Time) CellSample {
	out := CellSample{Ops: make(map[Op]OpSample, 4)}
	keys, probes := cellKeys(size)
	k := kernel{warmup: warmup, batches: max(batches, 1), deadline: deadline}
	var h collections.BenchHandle
	s, ok := k.measure(func(n int) {
		for i := 0; i < n; i++ {
			h = ad(keys)
		}
	})
	if !ok || h == nil {
		return out
	}
	out.Ops[OpPopulate] = s
	ops := []struct {
		op  Op
		run func(n int)
	}{
		{OpContains, func(n int) {
			for i := 0; i < n; i++ {
				h.Contains(probes[i&255])
			}
		}},
		{OpIterate, func(n int) {
			for i := 0; i < n; i++ {
				h.Iterate()
			}
		}},
		{OpMiddle, func(n int) {
			for i := 0; i < n; i++ {
				h.Middle()
			}
		}},
	}
	for _, o := range ops {
		if s, ok := k.measure(o.run); ok {
			out.Ops[o.op] = s
		}
	}
	if b, ok := h.Footprint(); ok {
		out.Footprint = float64(b)
		out.FootprintOK = true
	}
	return out
}

// kernel holds one cell's timing parameters.
type kernel struct {
	warmup, batches int
	deadline        time.Time
}

func (k kernel) live() bool {
	return k.deadline.IsZero() || time.Now().Before(k.deadline)
}

// measure times run, which makes n calls of one operation. Batches grow
// fourfold until one lasts batchSliceNs; that batch and up to batches-1
// repeats of its size are trusted. ns/op is their mean, falling back to the
// ramp's mean when the deadline cut the ramp short. B/op comes from
// allocated, read outside the timed batches and truncated to whole bytes
// per call as testing.B reports it. The counter is process-wide, so other
// goroutines' allocations (a GC cycle starting, say) land in it too;
// truncation drops them when they amortize below a byte per call.
// ok=false means not one call ran.
func (k kernel) measure(run func(n int)) (s OpSample, ok bool) {
	if !k.live() {
		return s, false
	}
	for i := 0; i < k.warmup && k.live(); i++ {
		run(1)
	}
	trusted := make([]float64, 0, k.batches) // per-call means
	before := k.allocated()
	var rampNs, calls int64
	n := int64(1)
	for len(trusted) < k.batches && k.live() {
		start := time.Now()
		run(int(n))
		ns := time.Since(start).Nanoseconds()
		calls += n
		if ns >= batchSliceNs {
			trusted = append(trusted, float64(ns)/float64(n))
			continue
		}
		rampNs += ns
		n *= 4
	}
	after := k.allocated()
	if calls == 0 {
		return s, false
	}
	s.AllocB = float64((after - before) / uint64(calls))
	if len(trusted) == 0 {
		s.NS = float64(rampNs) / float64(calls)
		return s, true
	}
	var sum float64
	for _, m := range trusted {
		sum += m
	}
	s.NS = sum / float64(len(trusted))
	if c := len(trusted); c >= 2 {
		var ss float64
		for _, m := range trusted {
			d := m - s.NS
			ss += d * d
		}
		s.SE = math.Sqrt(ss/float64(c-1)) / math.Sqrt(float64(c))
	}
	return s, true
}

// allocated reads the cumulative heap-allocation counter testing.B reads
// (MemStats.TotalAlloc). A deadline-bounded cell reads 0, so its B/op is 0:
// ReadMemStats stops the world, and on a loaded host one stop can outlast a
// millisecond deadline.
func (k kernel) allocated() uint64 {
	if !k.deadline.IsZero() {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
