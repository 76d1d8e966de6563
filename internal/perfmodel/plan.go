package perfmodel

// Plan is the factorial experimental plan of Table 3: each collection
// variant is evaluated at every (size, operation) combination, with Integer
// (int) elements drawn from a uniform distribution.
type Plan struct {
	// Sizes are the collection sizes to sample. Table 3 uses
	// [10, 50, 100, 150, ..., 1000].
	Sizes []int
	// Ops are the critical operations to measure.
	Ops []Op
	// Degree is the polynomial degree fitted to the samples (paper: 3).
	Degree int
	// WarmupIters and MeasureIters follow the steady-state methodology of
	// Section 4.1.2 (15 unmeasured, 30 measured): per operation and size,
	// MeasureCell makes WarmupIters untimed calls and averages MeasureIters
	// trusted batches (values below 1 mean one batch).
	WarmupIters, MeasureIters int
}

// DefaultPlan returns the Table 3 plan: sizes 10, 50, 100, 150, …, 1000;
// all four critical operations; cubic fits; 15 warm-up and 30 measured
// iterations.
func DefaultPlan() Plan {
	sizes := []int{10, 50}
	for s := 100; s <= 1000; s += 50 {
		sizes = append(sizes, s)
	}
	return Plan{
		Sizes:        sizes,
		Ops:          Ops(),
		Degree:       3,
		WarmupIters:  15,
		MeasureIters: 30,
	}
}

// QuickPlan returns a reduced plan for tests and smoke runs: fewer sizes and
// iterations, quadratic fits (stable on few points).
func QuickPlan() Plan {
	return Plan{
		Sizes:        []int{10, 100, 400, 1000},
		Ops:          Ops(),
		Degree:       2,
		WarmupIters:  1,
		MeasureIters: 3,
	}
}
