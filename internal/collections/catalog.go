package collections

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
)

// This file is the variant catalog: one generic registry entry per variant,
// shared by every layer of the framework. The per-abstraction views
// (ListVariants, SetVariants, MapVariants, SortedSetVariants, ...), the
// benchmark targets of the perfmodel builder, the analytic default models and
// the selection engine's candidate pools are all projections of this single
// table, so registering one Entry — from any package, including outside this
// module's internal tree — makes a variant flow end-to-end: it is
// instantiated by allocation contexts, benchmarked by cmd/perfmodel, modeled
// by perfmodel.Default, and considered by the selection rules.
//
// The catalog is copy-on-write: readers load an immutable snapshot through
// one atomic pointer (the hot selection path calls IsAdaptive per candidate
// per window close), writers rebuild the snapshot under a mutex. Builtin
// variants are registered at package init in Table 2 order, followed by the
// future-work extensions; user registrations append after them.

// Group classifies catalog entries by origin.
type Group string

const (
	// GroupCore marks the paper's Table 2 inventory — the default
	// candidate pool of every allocation context.
	GroupCore Group = "core"
	// GroupSorted and GroupConcurrent mark the future-work extensions
	// (paper Section 7); they are opt-in candidates.
	GroupSorted     Group = "sorted"
	GroupConcurrent Group = "concurrent"
	// GroupCustom marks user-registered variants.
	GroupCustom Group = "custom"
)

// CostFn is an analytic cost function of collection size, the unit of the
// catalog-attached default models.
type CostFn func(s float64) float64

// Critical-operation names, shared with the perfmodel package whose Op
// constants hold exactly these strings (pinned by a perfmodel test).
const (
	OpNamePopulate = "populate"
	OpNameContains = "contains"
	OpNameIterate  = "iterate"
	OpNameMiddle   = "middle"
)

// OpNames lists the critical-operation names in Table 3 order.
func OpNames() []string {
	return []string{OpNamePopulate, OpNameContains, OpNameIterate, OpNameMiddle}
}

// AnalyticModel bundles the hardware-independent cost functions of one
// variant. perfmodel.Default samples these at the Table 3 plan sizes and
// fits the same polynomial curves the empirical builder produces, so a
// variant registered with an analytic model is selectable without a
// benchmarking pass.
type AnalyticModel struct {
	// Time maps critical-operation names (OpNamePopulate, ...) to
	// nanosecond costs. Populate covers a complete population to size s;
	// the others are per call at size s.
	Time map[string]CostFn
	// AllocPopulate is bytes allocated while populating to size s
	// (including growth churn); AllocMiddle is bytes per middle op.
	// Lookup-like operations are modeled as allocation-free.
	AllocPopulate CostFn
	AllocMiddle   CostFn
	// Footprint is retained bytes at size s.
	Footprint CostFn
}

// BenchHandle exposes the critical operations of one populated collection
// instance to the generic benchmark driver (perfmodel.Builder.Build).
type BenchHandle interface {
	// Contains probes membership / lookup of one key.
	Contains(probe int)
	// Iterate performs one full traversal.
	Iterate()
	// Middle performs the abstraction's size-preserving middle mutation
	// (lists: insert+remove at the midpoint; sets/maps: add+remove of a
	// fresh key).
	Middle()
	// Footprint reports retained bytes, ok=false when unmeasurable.
	Footprint() (bytes int, ok bool)
}

// BenchAdapter creates a fresh instance of a variant populated with keys —
// the population itself is the timed populate operation.
type BenchAdapter func(keys []int) BenchHandle

// BenchTarget couples a variant ID with the adapter the model builder
// drives.
type BenchTarget struct {
	ID      VariantID
	Adapter BenchAdapter
}

// Entry is one catalog row: everything the framework knows about a variant.
type Entry struct {
	Info  VariantInfo
	Group Group
	// DefaultCandidate marks membership in the default candidate pool (and
	// the ListVariants/SetVariants/MapVariants views). Core and custom
	// entries default to true; extension entries are opt-in.
	DefaultCandidate bool
	// AdaptiveThreshold > 0 marks an adaptive variant and names its
	// representation-transition size (the breakpoint of its piecewise cost
	// model and the straddle gate of Section 3.2).
	AdaptiveThreshold int64
	// Analytic, when non-nil, supplies the variant's default cost model.
	Analytic *AnalyticModel
	// Constructor is the zero-argument constructor function in this package
	// (or, for custom variants, the name registered via WithConstructor)
	// that instantiates the variant — the hook the source-rewriting pipeline
	// (internal/rewrite) uses to recognize allocation sites. Empty when the
	// variant has no zero-arg constructor.
	Constructor string

	// factory is the typed factory of a registered variant —
	// func(int) List[T] / Set[T] / Map[K,V] for the concrete type
	// parameters it was registered with. Builtin entries leave it nil and
	// instantiate through the generic builtin factory switches.
	factory any
	// bench is the benchmark adapter; derived from the int-element factory
	// when possible, overridable at registration.
	bench BenchAdapter
}

// Benchmarkable reports whether the entry carries a benchmark adapter.
func (e Entry) Benchmarkable() bool { return e.bench != nil }

// catalogSnapshot is the immutable state readers load atomically.
type catalogSnapshot struct {
	entries []Entry
	byID    map[VariantID]int // index into entries
}

var (
	catalogMu    sync.Mutex // serializes writers
	catalogState atomic.Pointer[catalogSnapshot]
)

func init() {
	catalogState.Store(builtinCatalog())
}

// snapshot returns the current immutable catalog state.
func snapshot() *catalogSnapshot { return catalogState.Load() }

// Entries returns the catalog in registration order (builtins first). The
// returned slice is a copy; entries share immutable internals.
func Entries() []Entry {
	s := snapshot()
	out := make([]Entry, len(s.entries))
	copy(out, s.entries)
	return out
}

// EntryOf looks up one catalog entry by variant ID.
func EntryOf(id VariantID) (Entry, bool) {
	s := snapshot()
	if i, ok := s.byID[id]; ok {
		return s.entries[i], true
	}
	return Entry{}, false
}

// AbstractionOf returns the abstraction a variant implements. It panics on
// unknown IDs: abstraction confusion is a programming error.
func AbstractionOf(id VariantID) Abstraction {
	if e, ok := EntryOf(id); ok {
		return e.Info.Abstraction
	}
	panic(fmt.Sprintf("collections: unknown variant %q", id))
}

// IsAdaptive reports whether id names an adaptive variant (one with a
// representation-transition threshold).
func IsAdaptive(id VariantID) bool {
	e, ok := EntryOf(id)
	return ok && e.AdaptiveThreshold > 0
}

// AdaptiveThresholdOf returns the transition threshold of an adaptive
// variant, 0 for non-adaptive or unknown IDs.
func AdaptiveThresholdOf(id VariantID) int64 {
	e, ok := EntryOf(id)
	if !ok {
		return 0
	}
	return e.AdaptiveThreshold
}

// RegisterOption customizes a catalog registration.
type RegisterOption func(*Entry)

// WithAnalytic attaches a default analytic cost model, making the variant
// selectable through perfmodel.Default without a benchmarking pass.
func WithAnalytic(m AnalyticModel) RegisterOption {
	return func(e *Entry) { e.Analytic = &m }
}

// WithBenchAdapter overrides the benchmark adapter (the default is derived
// from the factory when the variant is registered for int elements).
func WithBenchAdapter(a BenchAdapter) RegisterOption {
	return func(e *Entry) { e.bench = a }
}

// WithAdaptiveThreshold marks the variant adaptive with the given
// representation-transition size.
func WithAdaptiveThreshold(n int64) RegisterOption {
	return func(e *Entry) { e.AdaptiveThreshold = n }
}

// AsOptIn removes the variant from the default candidate pools; it remains
// reachable through WithCandidates, the WithVariants constructors and
// BenchTargetFor.
func AsOptIn() RegisterOption {
	return func(e *Entry) { e.DefaultCandidate = false }
}

// register validates and appends one entry under the writer lock.
func register(e Entry) {
	if e.Info.ID == "" {
		panic("collections: registering variant with empty ID")
	}
	catalogMu.Lock()
	defer catalogMu.Unlock()
	old := snapshot()
	if _, dup := old.byID[e.Info.ID]; dup {
		panic(fmt.Sprintf("collections: variant %q already registered", e.Info.ID))
	}
	next := &catalogSnapshot{
		entries: make([]Entry, len(old.entries), len(old.entries)+1),
		byID:    make(map[VariantID]int, len(old.byID)+1),
	}
	copy(next.entries, old.entries)
	next.entries = append(next.entries, e)
	for i, en := range next.entries {
		next.byID[en.Info.ID] = i
	}
	catalogState.Store(next)
}

// resetCatalog restores the builtin-only catalog. Test helper.
func resetCatalog() {
	catalogMu.Lock()
	defer catalogMu.Unlock()
	catalogState.Store(builtinCatalog())
}

// newCustomEntry builds the common part of a user registration.
func newCustomEntry(info VariantInfo, a Abstraction, factory any, opts []RegisterOption) Entry {
	// The factory arrives boxed in an interface, so a typed nil function
	// needs the reflective check.
	if factory == nil || reflect.ValueOf(factory).IsNil() {
		panic(fmt.Sprintf("collections: variant %q registered with nil factory", info.ID))
	}
	info.Abstraction = a
	e := Entry{
		Info:             info,
		Group:            GroupCustom,
		DefaultCandidate: true,
		factory:          factory,
	}
	for _, opt := range opts {
		opt(&e)
	}
	return e
}

// RegisterListVariant adds a user-supplied list variant to the catalog for
// element type T. The variant joins the default candidate pool of every
// ListContext[T] (unless AsOptIn), is benchmarkable by cmd/perfmodel when
// T == int, and — given WithAnalytic — is modeled by perfmodel.Default.
func RegisterListVariant[T comparable](info VariantInfo, factory func(capHint int) List[T], opts ...RegisterOption) {
	e := newCustomEntry(info, ListAbstraction, factory, opts)
	if e.bench == nil {
		if f, ok := any(factory).(func(int) List[int]); ok {
			e.bench = ListBenchAdapter(f)
		}
	}
	register(e)
}

// RegisterSetVariant adds a user-supplied set variant to the catalog; see
// RegisterListVariant.
func RegisterSetVariant[T comparable](info VariantInfo, factory func(capHint int) Set[T], opts ...RegisterOption) {
	e := newCustomEntry(info, SetAbstraction, factory, opts)
	if e.bench == nil {
		if f, ok := any(factory).(func(int) Set[int]); ok {
			e.bench = SetBenchAdapter(f)
		}
	}
	register(e)
}

// RegisterMapVariant adds a user-supplied map variant to the catalog; see
// RegisterListVariant.
func RegisterMapVariant[K comparable, V any](info VariantInfo, factory func(capHint int) Map[K, V], opts ...RegisterOption) {
	e := newCustomEntry(info, MapAbstraction, factory, opts)
	if e.bench == nil {
		if f, ok := any(factory).(func(int) Map[int, int]); ok {
			e.bench = MapBenchAdapter(f)
		}
	}
	register(e)
}

// BenchTargets returns the benchmarkable default-candidate variants of one
// abstraction in catalog order — the set cmd/perfmodel measures.
func BenchTargets(a Abstraction) []BenchTarget {
	var out []BenchTarget
	for _, e := range snapshot().entries {
		if e.Info.Abstraction != a || !e.DefaultCandidate || e.bench == nil {
			continue
		}
		out = append(out, BenchTarget{ID: e.Info.ID, Adapter: e.bench})
	}
	return out
}

// BenchTargetFor returns the benchmark target of any catalog entry —
// including opt-in extension and custom variants — ok=false when the entry
// is unknown or has no adapter.
func BenchTargetFor(id VariantID) (BenchTarget, bool) {
	e, ok := EntryOf(id)
	if !ok || e.bench == nil {
		return BenchTarget{}, false
	}
	return BenchTarget{ID: e.Info.ID, Adapter: e.bench}, true
}

// ---- benchmark handles -------------------------------------------------

// visitAll and visitAllKV are the bench handles' traversal callbacks: plain
// functions, so a measured Iterate allocates no closure.
func visitAll(int) bool        { return true }
func visitAllKV(_, _ int) bool { return true }

// ListBenchAdapter derives a benchmark adapter from a list factory.
func ListBenchAdapter(newList func(int) List[int]) BenchAdapter {
	return func(keys []int) BenchHandle {
		l := newList(0)
		for _, k := range keys {
			l.Add(k)
		}
		return listBenchHandle{l}
	}
}

type listBenchHandle struct{ l List[int] }

func (h listBenchHandle) Contains(probe int) { h.l.Contains(probe) }

func (h listBenchHandle) Iterate() { h.l.ForEach(visitAll) }

// Middle inserts and removes at the midpoint; the size stays constant.
func (h listBenchHandle) Middle() {
	mid := h.l.Len() / 2
	h.l.Insert(mid, -1)
	h.l.RemoveAt(mid)
}

func (h listBenchHandle) Footprint() (int, bool) { return footprintOf(h.l) }

// SetBenchAdapter derives a benchmark adapter from a set factory.
func SetBenchAdapter(newSet func(int) Set[int]) BenchAdapter {
	return func(keys []int) BenchHandle {
		s := newSet(0)
		for _, k := range keys {
			s.Add(k)
		}
		// The middle op exercises a key guaranteed absent: the measured
		// keys come from [0, 2n) (perfmodel.MeasureCell).
		return setBenchHandle{s: s, fresh: len(keys)*2 + 1}
	}
}

type setBenchHandle struct {
	s     Set[int]
	fresh int
}

func (h setBenchHandle) Contains(probe int) { h.s.Contains(probe) }

func (h setBenchHandle) Iterate() { h.s.ForEach(visitAll) }

func (h setBenchHandle) Middle() {
	h.s.Add(h.fresh)
	h.s.Remove(h.fresh)
}

func (h setBenchHandle) Footprint() (int, bool) { return footprintOf(h.s) }

// MapBenchAdapter derives a benchmark adapter from a map factory.
func MapBenchAdapter(newMap func(int) Map[int, int]) BenchAdapter {
	return func(keys []int) BenchHandle {
		m := newMap(0)
		for _, k := range keys {
			m.Put(k, k)
		}
		return mapBenchHandle{m: m, fresh: len(keys)*2 + 1}
	}
}

type mapBenchHandle struct {
	m     Map[int, int]
	fresh int
}

func (h mapBenchHandle) Contains(probe int) { h.m.Get(probe) }

func (h mapBenchHandle) Iterate() { h.m.ForEach(visitAllKV) }

func (h mapBenchHandle) Middle() {
	h.m.Put(h.fresh, h.fresh)
	h.m.Remove(h.fresh)
}

func (h mapBenchHandle) Footprint() (int, bool) { return footprintOf(h.m) }

func footprintOf(c any) (int, bool) {
	if s, ok := c.(Sizer); ok {
		return s.FootprintBytes(), true
	}
	return 0, false
}

// ---- builtin registration ----------------------------------------------

// builtinCatalog assembles the shipped inventory: the Table 2 variants (the
// default candidate pool) followed by the future-work sorted and concurrent
// extensions (opt-in).
func builtinCatalog() *catalogSnapshot {
	models := analyticDefaults()
	var entries []Entry
	add := func(info VariantInfo, group Group, defaultCandidate bool) {
		e := Entry{
			Info:              info,
			Group:             group,
			DefaultCandidate:  defaultCandidate,
			AdaptiveThreshold: builtinAdaptiveThreshold(info.ID),
			Constructor:       builtinConstructor(info.ID),
			bench:             builtinBenchAdapter(info),
		}
		if m, ok := models[info.ID]; ok {
			m := m
			e.Analytic = &m
		}
		entries = append(entries, e)
	}
	for _, info := range AllVariantInfos() {
		add(info, GroupCore, true)
	}
	for _, info := range ExtensionVariantInfos() {
		add(info, extensionGroup(info.ID), false)
	}
	s := &catalogSnapshot{entries: entries, byID: make(map[VariantID]int, len(entries))}
	for i, e := range entries {
		s.byID[e.Info.ID] = i
	}
	return s
}

// builtinAdaptiveThreshold maps the adaptive variants to their transition
// sizes.
func builtinAdaptiveThreshold(id VariantID) int64 {
	switch id {
	case AdaptiveListID:
		return DefaultListThreshold
	case AdaptiveSetID:
		return DefaultSetThreshold
	case AdaptiveMapID:
		return DefaultMapThreshold
	}
	return 0
}

// extensionGroup classifies the future-work variants.
func extensionGroup(id VariantID) Group {
	switch id {
	case SyncSetID, SyncMapID, ShardedMapID:
		return GroupConcurrent
	}
	return GroupSorted
}

// builtinBenchAdapter derives the int-element benchmark adapter of a builtin
// variant.
func builtinBenchAdapter(info VariantInfo) BenchAdapter {
	switch info.Abstraction {
	case ListAbstraction:
		if f := builtinListFactory[int](info.ID); f != nil {
			return ListBenchAdapter(f)
		}
	case SetAbstraction:
		if f := builtinSetFactory[int](info.ID); f != nil {
			return SetBenchAdapter(f)
		}
		if f := builtinSortedSetFactory[int](info.ID); f != nil {
			return SetBenchAdapter(f)
		}
	case MapAbstraction:
		if f := builtinMapFactory[int, int](info.ID); f != nil {
			return MapBenchAdapter(f)
		}
		if f := builtinSortedMapFactory[int, int](info.ID); f != nil {
			return MapBenchAdapter(f)
		}
	}
	return nil
}
