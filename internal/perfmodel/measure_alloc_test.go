//go:build !race

// Under the race detector the process-wide allocation counter picks up
// allocations the measured code does not make, so exact allocation figures
// are only checked without it.

package perfmodel

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// Allocation is read from the runtime's counters: list/array lookups and
// traversals allocate nothing, and populating a larger list allocates more.
func TestMeasureCellAllocations(t *testing.T) {
	// The allocation counter is process-wide: keep a GC cycle from starting,
	// and allocating, inside the measured windows.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	ad := arrayListAdapter(t)
	small := MeasureCell(ad, 10, 1, 1, time.Time{})
	large := MeasureCell(ad, 1000, 1, 1, time.Time{})
	for _, cell := range []CellSample{small, large} {
		for _, op := range []Op{OpContains, OpIterate} {
			if b := cell.Ops[op].AllocB; b != 0 {
				t.Errorf("%s allocates %g B/op, want 0", op, b)
			}
		}
	}
	if s, l := small.Ops[OpPopulate].AllocB, large.Ops[OpPopulate].AllocB; !(l > s && s > 0) {
		t.Errorf("populate B/op does not grow with size: %g at 10 -> %g at 1000", s, l)
	}
}
