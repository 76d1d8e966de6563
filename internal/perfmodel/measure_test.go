package perfmodel

import (
	"math"
	"testing"
	"time"

	"repro/internal/collections"
)

func arrayListAdapter(t *testing.T) collections.BenchAdapter {
	t.Helper()
	target, ok := collections.BenchTargetFor(collections.ArrayListID)
	if !ok {
		t.Fatal("list/array has no bench adapter")
	}
	return target.Adapter
}

// A spent deadline measures nothing; a generous one lets several trusted
// batches fit, and their spread gives every op a positive, finite SE. A
// deadline-bounded cell leaves allocation unread.
func TestMeasureCellStandardError(t *testing.T) {
	ad := arrayListAdapter(t)
	if cell := MeasureCell(ad, 50, 0, 3, time.Now().Add(-time.Millisecond)); len(cell.Ops) != 0 {
		t.Errorf("expired deadline still measured %v", cell.Ops)
	}
	cell := MeasureCell(ad, 50, 1, 3, time.Now().Add(10*time.Second))
	if len(cell.Ops) != len(Ops()) {
		t.Fatalf("measured %d ops, want %d", len(cell.Ops), len(Ops()))
	}
	for op, s := range cell.Ops {
		if !(s.NS > 0) || math.IsInf(s.NS, 0) {
			t.Errorf("%s: ns/op = %g, want positive and finite", op, s.NS)
		}
		if !(s.SE > 0) || math.IsInf(s.SE, 0) {
			t.Errorf("%s: se = %g, want positive and finite from 3 trusted batches", op, s.SE)
		}
		if s.AllocB != 0 {
			t.Errorf("%s: deadline-bounded cell read %g B/op, want 0", op, s.AllocB)
		}
	}
	if !cell.FootprintOK || cell.Footprint <= 0 {
		t.Errorf("footprint = %g (ok=%v), want a positive measurement", cell.Footprint, cell.FootprintOK)
	}
}

// spinHandle is a bench handle whose every operation busy-waits for d.
type spinHandle struct{ d time.Duration }

func (h spinHandle) spin() {
	for start := time.Now(); time.Since(start) < h.d; {
	}
}

func (h spinHandle) Contains(int)           { h.spin() }
func (h spinHandle) Iterate()               { h.spin() }
func (h spinHandle) Middle()                { h.spin() }
func (h spinHandle) Footprint() (int, bool) { return 0, false }

// No batch starts past the deadline, so a cell ends within one batch of it.
// Every call here lasts one trusted batch, and unbounded the cell would
// take 4 ops × 1000 batches × 2ms.
func TestMeasureCellStopsAtDeadline(t *testing.T) {
	const call, budget = 2 * time.Millisecond, 20 * time.Millisecond
	// Slack for the scheduler: packages run their tests concurrently.
	const slack = 30 * time.Millisecond
	h := spinHandle{call}
	ad := func([]int) collections.BenchHandle { h.spin(); return h }
	start := time.Now()
	cell := MeasureCell(ad, 10, 0, 1000, start.Add(budget))
	if elapsed := time.Since(start); elapsed > budget+call+slack {
		t.Errorf("cell took %v, want at most deadline %v plus one %v batch", elapsed, budget, call)
	}
	s, ok := cell.Ops[OpPopulate]
	if !ok {
		t.Fatal("populate was not measured before the deadline")
	}
	if s.NS < float64(call.Nanoseconds()) {
		t.Errorf("populate ns/op = %g, want at least the %v spin", s.NS, call)
	}
}
