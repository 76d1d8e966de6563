// Package search implements offline multi-objective selection: given the
// workload profiles of a program's allocation sites (from a tuner
// calibration store or Engine.SiteSnapshots) and the framework's cost-model
// curves, it searches the space of per-site variant assignments for the
// Pareto front over time, footprint, and allocation objectives.
//
// The algorithm is NSGA-II-lite, after *Darwinian Data Structure Selection*:
// fast nondominated sorting with crowding-distance truncation over a seeded
// population (the baseline assignment, per-objective greedy assignments, and
// caller-supplied seeds such as the store's current selections), binary
// tournament selection, uniform crossover, per-gene mutation, and a final
// per-site hill-climb polish of every front member. Model uncertainty
// (schema-2 variance) breaks ties: between otherwise indistinguishable
// assignments the one the models are more certain about wins.
//
// Costs are priced by perfmodel.Models.WorkloadCostSE, the same kernel the
// online selector folds with (internal/core costAgg), so offline and online
// selection share one cost function by construction. At the profile level
// operation dimensions are evaluated at the observed mean instance size with
// popN = Adds/s populations, and the footprint dimension is retained state,
// charged once per instance at the observed maximum size. Everything is
// deterministic for a fixed Config.Seed.
package search

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/collections"
	"repro/internal/core"
	"repro/internal/perfmodel"
)

// Objective names a search objective and maps to a cost-model dimension.
type Objective string

const (
	ObjTime   Objective = "time"   // execution time (time-ns)
	ObjMem    Objective = "mem"    // retained footprint bytes
	ObjAlloc  Objective = "alloc"  // bytes allocated
	ObjEnergy Objective = "energy" // synthesized energy dimension
)

// Dimension returns the perfmodel dimension the objective evaluates on.
func (o Objective) Dimension() (perfmodel.Dimension, error) {
	switch o {
	case ObjTime:
		return perfmodel.DimTimeNS, nil
	case ObjMem:
		return perfmodel.DimFootprint, nil
	case ObjAlloc:
		return perfmodel.DimAllocB, nil
	case ObjEnergy:
		return perfmodel.DimEnergy, nil
	}
	return "", fmt.Errorf("search: unknown objective %q (want time, mem, alloc, or energy)", o)
}

// ParseObjectives parses a comma-separated objective list ("time,mem").
func ParseObjectives(s string) ([]Objective, error) {
	var out []Objective
	seen := map[Objective]bool{}
	for _, part := range strings.Split(s, ",") {
		o := Objective(strings.TrimSpace(part))
		if o == "" {
			continue
		}
		if _, err := o.Dimension(); err != nil {
			return nil, err
		}
		if !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("search: no objectives in %q", s)
	}
	return out, nil
}

// Site is one searchable allocation site: its candidate pool and the
// workload profile the objectives are evaluated against.
type Site struct {
	Name        string
	Abstraction collections.Abstraction
	// Baseline is the site's current assignment — the constructor found in
	// the source, or the store's selected variant.
	Baseline collections.VariantID
	// Candidates is the pool searched over; it must contain Baseline.
	Candidates []collections.VariantID
	Profile    core.WorkloadProfile
}

// Problem is one search instance.
type Problem struct {
	Sites      []Site
	Models     *perfmodel.Models
	Objectives []Objective
}

// Config tunes the search. The zero value selects sensible defaults.
type Config struct {
	// Seed drives every random choice; equal seeds give equal results.
	Seed int64
	// Population size (default 64, minimum 4, rounded up to even).
	Population int
	// Generations evolved (default 120).
	Generations int
	// Seeds are extra assignments injected into the initial population,
	// e.g. the store's currently selected variants. Unknown variants in a
	// seed fall back to the site baseline.
	Seeds [][]collections.VariantID
}

// Assignment is one evaluated point of the search space.
type Assignment struct {
	// Variants is index-aligned with Problem.Sites.
	Variants []collections.VariantID `json:"variants"`
	// Costs holds the total cost per objective, Problem.Objectives order.
	Costs []float64 `json:"costs"`
	// SEs holds the accumulated model standard error per objective —
	// conservative (perfectly correlated) sums, matching the online
	// selector's interval convention.
	SEs []float64 `json:"ses"`
}

// Result is the search outcome.
type Result struct {
	// Objectives echoes the problem's objective order, the axis labels of
	// every Costs slice.
	Objectives []Objective `json:"objectives"`
	// Front is the final nondominated set, sorted ascending by the first
	// objective.
	Front []Assignment `json:"front"`
	// Baseline is the evaluated all-baseline assignment.
	Baseline Assignment `json:"baseline"`
	// Evaluations counts distinct cost evaluations performed.
	Evaluations int `json:"evaluations"`
}

// Dominates reports whether costs a Pareto-dominates b: no worse on every
// objective and strictly better on at least one.
func Dominates(a, b []float64) bool {
	better := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			better = true
		}
	}
	return better
}

// BetterCount returns how many objectives a improves on over b, and whether
// a is no worse than b everywhere. noWorse && strictly >= n means "dominates
// b on ≥ n objectives" in the acceptance-criteria sense.
func BetterCount(a, b []float64) (strictly int, noWorse bool) {
	noWorse = true
	for i := range a {
		if a[i] > b[i] {
			noWorse = false
		}
		if a[i] < b[i] {
			strictly++
		}
	}
	return strictly, noWorse
}

// matrix holds the precomputed per-site, per-candidate, per-objective costs.
type matrix struct {
	sites [][]cell // [site][candidate]
}

type cell struct {
	variant collections.VariantID
	cost    []float64 // per objective
	se      []float64
}

// evaluator runs the genome → costs mapping.
type evaluator struct {
	m     matrix
	nObj  int
	evals int
}

// individual is one genome plus its evaluation and NSGA bookkeeping.
type individual struct {
	genes    []int // candidate index per site
	costs    []float64
	ses      []float64
	rank     int
	crowding float64
}

// Run searches the assignment space and returns the Pareto front. It errors
// when the problem is empty, an objective lacks model coverage for a site's
// baseline, or a site's candidate pool evaluates empty.
func Run(p Problem, cfg Config) (Result, error) {
	if len(p.Sites) == 0 {
		return Result{}, fmt.Errorf("search: no sites")
	}
	if len(p.Objectives) == 0 {
		return Result{}, fmt.Errorf("search: no objectives")
	}
	if p.Models == nil {
		return Result{}, fmt.Errorf("search: nil models")
	}
	dims := make([]perfmodel.Dimension, len(p.Objectives))
	for i, o := range p.Objectives {
		d, err := o.Dimension()
		if err != nil {
			return Result{}, err
		}
		dims[i] = d
	}

	m, err := buildMatrix(p, dims)
	if err != nil {
		return Result{}, err
	}
	ev := &evaluator{m: m, nObj: len(dims)}

	pop := cfg.Population
	if pop <= 0 {
		pop = 64
	}
	if pop < 4 {
		pop = 4
	}
	if pop%2 == 1 {
		pop++
	}
	gens := cfg.Generations
	if gens <= 0 {
		gens = 120
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// ---- seeded initial population ------------------------------------
	var inds []*individual
	addGenome := func(g []int) {
		inds = append(inds, ev.evaluate(g))
	}
	baselineGenes := make([]int, len(p.Sites))
	for i := range p.Sites {
		baselineGenes[i] = m.indexOf(i, p.Sites[i].Baseline)
	}
	addGenome(baselineGenes)
	// Per-objective greedy: argmin per site on one objective at a time.
	for k := 0; k < len(dims); k++ {
		g := make([]int, len(p.Sites))
		for i := range p.Sites {
			best, bestCost := 0, math.Inf(1)
			for j, c := range m.sites[i] {
				if c.cost[k] < bestCost {
					best, bestCost = j, c.cost[k]
				}
			}
			g[i] = best
		}
		addGenome(g)
	}
	for _, seed := range cfg.Seeds {
		g := make([]int, len(p.Sites))
		for i := range p.Sites {
			g[i] = baselineGenes[i]
			if i < len(seed) {
				if j := m.indexOf(i, seed[i]); j >= 0 {
					g[i] = j
				}
			}
		}
		addGenome(g)
	}
	for len(inds) < pop {
		g := make([]int, len(p.Sites))
		for i := range p.Sites {
			g[i] = rng.Intn(len(m.sites[i]))
		}
		addGenome(g)
	}
	inds = inds[:pop]
	rankPopulation(inds)

	// ---- generations ---------------------------------------------------
	mutP := 1.0 / float64(len(p.Sites))
	for gen := 0; gen < gens; gen++ {
		offspring := make([]*individual, 0, pop)
		for len(offspring) < pop {
			a := tournament(rng, inds)
			b := tournament(rng, inds)
			ca, cb := crossover(rng, a.genes, b.genes)
			mutate(rng, ca, m, mutP)
			mutate(rng, cb, m, mutP)
			offspring = append(offspring, ev.evaluate(ca), ev.evaluate(cb))
		}
		inds = truncate(append(inds, offspring...), pop)
	}

	// ---- hill-climb polish of the front --------------------------------
	front := currentFront(inds)
	polished := make([]*individual, 0, len(front))
	for _, ind := range front {
		polished = append(polished, ev.polish(ind))
	}
	front = append(front, polished...)

	// ---- final nondominated filter + dedup -----------------------------
	final := nondominated(front)
	final = dedup(final)
	sort.SliceStable(final, func(i, j int) bool {
		if final[i].costs[0] != final[j].costs[0] {
			return final[i].costs[0] < final[j].costs[0]
		}
		return genomeLess(final[i].genes, final[j].genes)
	})

	res := Result{
		Objectives:  p.Objectives,
		Front:       make([]Assignment, len(final)),
		Baseline:    ev.assignment(ev.evaluate(baselineGenes)),
		Evaluations: ev.evals,
	}
	for i, ind := range final {
		res.Front[i] = ev.assignment(ind)
	}
	return res, nil
}

// buildMatrix precomputes per-site candidate costs, dropping candidates the
// models cannot evaluate on every requested dimension, and prices the rest
// at the profile level described in the package comment.
func buildMatrix(p Problem, dims []perfmodel.Dimension) (matrix, error) {
	m := matrix{sites: make([][]cell, len(p.Sites))}
	for i, s := range p.Sites {
		if len(s.Candidates) == 0 {
			return m, fmt.Errorf("search: site %s has no candidates", s.Name)
		}
		w := s.Profile
		mean := max(w.MeanSize, 1)
		maxSize := max(float64(w.MaxSize), mean)
		u := perfmodel.Usage{
			Instances: max(float64(w.Instances), 1),
			Populate:  w.Adds / mean,
			Contains:  w.Contains,
			Iterate:   w.Iterates,
			Middle:    w.Middles,
		}
		hasBaseline := false
		for _, v := range s.Candidates {
			if _, _, missing := p.Models.MissingCurve(v, dims); missing {
				if v == s.Baseline {
					return m, fmt.Errorf("search: site %s: models lack curves for baseline %s", s.Name, v)
				}
				continue
			}
			c := cell{variant: v, cost: make([]float64, len(dims)), se: make([]float64, len(dims))}
			for k, dim := range dims {
				size := mean
				if dim == perfmodel.DimFootprint {
					size = maxSize
				}
				c.cost[k], c.se[k], _ = p.Models.WorkloadCostSE(v, dim, u, size)
			}
			m.sites[i] = append(m.sites[i], c)
			if v == s.Baseline {
				hasBaseline = true
			}
		}
		if !hasBaseline {
			return m, fmt.Errorf("search: site %s: baseline %s not in candidate pool", s.Name, s.Baseline)
		}
	}
	return m, nil
}

func (m matrix) indexOf(site int, v collections.VariantID) int {
	for j, c := range m.sites[site] {
		if c.variant == v {
			return j
		}
	}
	return -1
}

func (e *evaluator) evaluate(genes []int) *individual {
	e.evals++
	ind := &individual{
		genes: append([]int(nil), genes...),
		costs: make([]float64, e.nObj),
		ses:   make([]float64, e.nObj),
	}
	for i, j := range genes {
		c := e.m.sites[i][j]
		for k := 0; k < e.nObj; k++ {
			ind.costs[k] += c.cost[k]
			ind.ses[k] += c.se[k]
		}
	}
	return ind
}

func (e *evaluator) assignment(ind *individual) Assignment {
	a := Assignment{
		Variants: make([]collections.VariantID, len(ind.genes)),
		Costs:    append([]float64(nil), ind.costs...),
		SEs:      append([]float64(nil), ind.ses...),
	}
	for i, j := range ind.genes {
		a.Variants[i] = e.m.sites[i][j].variant
	}
	return a
}

// polish hill-climbs one individual: repeatedly applies the single-site swap
// that Pareto-dominates the current point, until no swap does.
func (e *evaluator) polish(ind *individual) *individual {
	cur := ind
	for improved := true; improved; {
		improved = false
		for i := range cur.genes {
			for j := range e.m.sites[i] {
				if j == cur.genes[i] {
					continue
				}
				g := append([]int(nil), cur.genes...)
				g[i] = j
				cand := e.evaluate(g)
				if Dominates(cand.costs, cur.costs) {
					cur = cand
					improved = true
				}
			}
		}
	}
	return cur
}

// seSum is the uncertainty tie-breaker key.
func seSum(ind *individual) float64 {
	t := 0.0
	for _, s := range ind.ses {
		t += s
	}
	return t
}

// tournament is binary tournament selection: lower rank wins, then higher
// crowding distance, then lower accumulated model uncertainty.
func tournament(rng *rand.Rand, inds []*individual) *individual {
	a := inds[rng.Intn(len(inds))]
	b := inds[rng.Intn(len(inds))]
	switch {
	case a.rank != b.rank:
		if a.rank < b.rank {
			return a
		}
		return b
	case a.crowding != b.crowding:
		if a.crowding > b.crowding {
			return a
		}
		return b
	default:
		if seSum(a) <= seSum(b) {
			return a
		}
		return b
	}
}

// crossover is uniform: each gene comes from either parent with p = 1/2.
func crossover(rng *rand.Rand, a, b []int) ([]int, []int) {
	ca := append([]int(nil), a...)
	cb := append([]int(nil), b...)
	for i := range ca {
		if rng.Intn(2) == 0 {
			ca[i], cb[i] = cb[i], ca[i]
		}
	}
	return ca, cb
}

// mutate resets each gene to a uniformly random candidate with probability p.
func mutate(rng *rand.Rand, g []int, m matrix, p float64) {
	for i := range g {
		if rng.Float64() < p {
			g[i] = rng.Intn(len(m.sites[i]))
		}
	}
}

// rankPopulation assigns nondomination ranks and crowding distances.
func rankPopulation(inds []*individual) [][]*individual {
	fronts := fastNondominatedSort(inds)
	for _, f := range fronts {
		assignCrowding(f)
	}
	return fronts
}

// fastNondominatedSort is the O(N²·M) NSGA-II sort.
func fastNondominatedSort(inds []*individual) [][]*individual {
	n := len(inds)
	domCount := make([]int, n)
	dominates := make([][]int, n)
	var first []int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if Dominates(inds[i].costs, inds[j].costs) {
				dominates[i] = append(dominates[i], j)
			} else if Dominates(inds[j].costs, inds[i].costs) {
				domCount[i]++
			}
		}
		if domCount[i] == 0 {
			inds[i].rank = 0
			first = append(first, i)
		}
	}
	var fronts [][]*individual
	cur := first
	for rank := 0; len(cur) > 0; rank++ {
		f := make([]*individual, 0, len(cur))
		var next []int
		for _, i := range cur {
			inds[i].rank = rank
			f = append(f, inds[i])
			for _, j := range dominates[i] {
				domCount[j]--
				if domCount[j] == 0 {
					next = append(next, j)
				}
			}
		}
		fronts = append(fronts, f)
		cur = next
	}
	return fronts
}

// assignCrowding computes the crowding distance within one front.
func assignCrowding(front []*individual) {
	n := len(front)
	for _, ind := range front {
		ind.crowding = 0
	}
	if n == 0 {
		return
	}
	nObj := len(front[0].costs)
	for k := 0; k < nObj; k++ {
		sort.SliceStable(front, func(i, j int) bool { return front[i].costs[k] < front[j].costs[k] })
		lo, hi := front[0].costs[k], front[n-1].costs[k]
		front[0].crowding = math.Inf(1)
		front[n-1].crowding = math.Inf(1)
		if hi == lo {
			continue
		}
		for i := 1; i < n-1; i++ {
			front[i].crowding += (front[i+1].costs[k] - front[i-1].costs[k]) / (hi - lo)
		}
	}
}

// truncate is the elitist environmental selection: rank the merged
// population, fill whole fronts, and cut the last partial front by crowding
// distance (uncertainty-then-genome tie-break keeps it deterministic).
func truncate(inds []*individual, pop int) []*individual {
	fronts := rankPopulation(inds)
	out := make([]*individual, 0, pop)
	for _, f := range fronts {
		if len(out)+len(f) <= pop {
			out = append(out, f...)
			continue
		}
		sort.SliceStable(f, func(i, j int) bool {
			if f[i].crowding != f[j].crowding {
				return f[i].crowding > f[j].crowding
			}
			if si, sj := seSum(f[i]), seSum(f[j]); si != sj {
				return si < sj
			}
			return genomeLess(f[i].genes, f[j].genes)
		})
		out = append(out, f[:pop-len(out)]...)
		break
	}
	return out
}

// currentFront returns the rank-0 members of a ranked population.
func currentFront(inds []*individual) []*individual {
	var out []*individual
	for _, ind := range inds {
		if ind.rank == 0 {
			out = append(out, ind)
		}
	}
	return out
}

// nondominated filters to the Pareto-optimal members.
func nondominated(inds []*individual) []*individual {
	var out []*individual
	for i, a := range inds {
		dominated := false
		for j, b := range inds {
			if i == j {
				continue
			}
			if Dominates(b.costs, a.costs) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, a)
		}
	}
	return out
}

// dedup collapses duplicate genomes and, among genomes with identical costs,
// keeps the one the models are most certain about.
func dedup(inds []*individual) []*individual {
	var out []*individual
	seenGenome := map[string]bool{}
	byCosts := map[string]int{} // costs key -> index into out
	for _, ind := range inds {
		gk := genomeKey(ind.genes)
		if seenGenome[gk] {
			continue
		}
		seenGenome[gk] = true
		ck := costsKey(ind.costs)
		if i, ok := byCosts[ck]; ok {
			if seSum(ind) < seSum(out[i]) {
				out[i] = ind
			}
			continue
		}
		byCosts[ck] = len(out)
		out = append(out, ind)
	}
	return out
}

func genomeKey(g []int) string {
	var b strings.Builder
	for _, x := range g {
		fmt.Fprintf(&b, "%d,", x)
	}
	return b.String()
}

func costsKey(c []float64) string {
	var b strings.Builder
	for _, x := range c {
		fmt.Fprintf(&b, "%x,", math.Float64bits(x))
	}
	return b.String()
}

func genomeLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
