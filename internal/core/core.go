// Package core implements CollectionSwitch itself: allocation contexts that
// instantiate, monitor and adaptively re-select collection variants at
// runtime (paper Sections 3 and 4).
//
// An allocation context stands in for one collection allocation site. It
// creates collections of its current variant, transparently wraps a sampled
// window of the created instances in monitors that record their workload
// profiles (operation counts and maximum size), detects instance death
// through weak pointers — the Go analogue of the paper's WeakReference
// technique — and periodically folds the observed workloads into per-variant
// total-cost estimates
//
//	TC_D(V) = Σ_instances Σ_op N_op · cost_{op,V}(s_max)
//
// priced by perfmodel.Models.WorkloadCost. When a configurable
// selection rule (Table 4) finds a variant whose estimated costs beat the
// current one's, the context switches the variant used for future
// instantiations and starts a new monitoring round.
//
// The Engine owns the analysis loop: a single background goroutine wakes at
// the monitoring rate (default 50 ms) and analyzes every registered context.
// Folding is incremental — each finished instance is folded into running
// per-variant sums exactly once — so the periodic decision step costs O(
// candidates), independent of the window size (the property Figure 7
// measures).
package core

// Workload is an immutable snapshot of a profile, the W of Section 3.1.1.
// It is produced by profile.snapshot (profile.go), which aggregates the
// striped per-shard counters into these exact totals.
type Workload struct {
	Adds     int64
	Contains int64
	Iterates int64
	Middles  int64
	MaxSize  int64
}
