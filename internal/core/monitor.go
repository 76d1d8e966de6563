package core

import (
	"runtime"
	"unsafe"

	"repro/internal/collections"
)

// The monitor types wrap a collection instance and log its critical
// operations into a profile before forwarding to the real implementation —
// the "extra layer called monitor" of Section 4.3. Only the sampled window
// of instances pays this cost; instances beyond the window are handed out
// unwrapped.
//
// There is one monitor per abstraction, monitoredList/Set/Map. Each
// counting method picks its counter stripe once with stripeOf and reuses it
// for the size observation, so concurrent recorders on different goroutines
// land on different cache lines (see profile.go). A single-stripe profile
// (a GOMAXPROCS=1 process) has a zero mask, and the same code selects
// stripe 0. The selection is a few ALU ops ahead of the atomic increment
// even at one stripe; EXPERIMENTS.md ("Monitoring overhead at saturation")
// has its measured cost at GOMAXPROCS=1.
//
// Two details keep the shared profile pool safe:
//
//   - Methods that write the profile after their last use of the monitor
//     (the size observation after a successful insert) end with
//     runtime.KeepAlive(m). Without it the monitor — whose collection by
//     the GC is the instance-death signal — could be reclaimed between the
//     inner operation and the final counter write, the analyzer could fold
//     and release the profile, and the late write would land in a profile
//     already recycled to another instance. Methods that merely count and
//     then delegate need no pin: the delegation itself keeps m alive past
//     the counter write.
//   - The collections.Sizer assertion is resolved once at wrap time and
//     cached in the sizer field, instead of re-asserted on every
//     FootprintBytes call.

// stripeOf selects a counter stripe for one monitored operation: base is
// the profile's first stripe, maskBytes is (stripes-1)*64. The hash
// mixes two windows of a current stack slot's address — goroutine stacks
// are disjoint allocations, so distinct goroutines land on distinct stripes
// with high probability, and repeated calls from similar frames reuse a
// stripe (the affinity that keeps its cache line core-local). Collisions
// merely share a stripe — every counter update is atomic, so counts stay
// exact regardless of the distribution. The probe address never outlives
// the expression, and maskBytes keeps the byte offset a multiple of 64
// inside the profile's stripe array, so the unsafe.Add stays in bounds.
func stripeOf(base *pshard, maskBytes uintptr) *pshard {
	var probe byte
	sp := uintptr(unsafe.Pointer(&probe))
	return (*pshard)(unsafe.Add(unsafe.Pointer(base), ((sp>>5)^(sp>>11))&maskBytes))
}

// monitoredList wraps a List and counts its critical operations on the
// stripe stripeOf selects.
type monitoredList[T comparable] struct {
	inner     collections.List[T]
	sh        *pshard           // first stripe of the instance's profile
	maskBytes uintptr           // stripe-selection mask, (stripes-1)*64
	sizer     collections.Sizer // cached inner.(collections.Sizer); nil if unsupported
	// p is the instance's profile. The record path reaches it through sh
	// only, but the field also rounds the monitor up to the 64-byte size
	// class, so a monitor shared between goroutines never shares a cache
	// line with a neighbouring object's writes. Without it the svc-read
	// benchmark's req_p99_us read 3-17% higher in 8 of 8 paired runs on a
	// 2-vCPU x86 VM.
	p *profile
}

func (m *monitoredList[T]) Add(v T) {
	sh := stripeOf(m.sh, m.maskBytes)
	sh.adds.Add(1)
	m.inner.Add(v)
	sh.observeSize(m.inner.Len())
	runtime.KeepAlive(m)
}

func (m *monitoredList[T]) Insert(i int, v T) {
	sh := stripeOf(m.sh, m.maskBytes)
	sh.adds.Add(1)
	if i < m.inner.Len() {
		sh.middles.Add(1)
	}
	m.inner.Insert(i, v)
	sh.observeSize(m.inner.Len())
	runtime.KeepAlive(m)
}

func (m *monitoredList[T]) Get(i int) T { return m.inner.Get(i) }

func (m *monitoredList[T]) Set(i int, v T) T { return m.inner.Set(i, v) }

func (m *monitoredList[T]) RemoveAt(i int) T {
	stripeOf(m.sh, m.maskBytes).middles.Add(1)
	return m.inner.RemoveAt(i)
}

func (m *monitoredList[T]) Remove(v T) bool {
	// A removal by value is a search plus a positional removal.
	sh := stripeOf(m.sh, m.maskBytes)
	sh.contains.Add(1)
	sh.middles.Add(1)
	return m.inner.Remove(v)
}

func (m *monitoredList[T]) Contains(v T) bool {
	stripeOf(m.sh, m.maskBytes).contains.Add(1)
	return m.inner.Contains(v)
}

func (m *monitoredList[T]) IndexOf(v T) int {
	stripeOf(m.sh, m.maskBytes).contains.Add(1)
	return m.inner.IndexOf(v)
}

func (m *monitoredList[T]) Len() int { return m.inner.Len() }

func (m *monitoredList[T]) Clear() { m.inner.Clear() }

func (m *monitoredList[T]) ForEach(fn func(T) bool) {
	stripeOf(m.sh, m.maskBytes).iterates.Add(1)
	m.inner.ForEach(fn)
}

// FootprintBytes delegates to the wrapped variant so memory accounting sees
// through the monitor.
func (m *monitoredList[T]) FootprintBytes() int {
	if m.sizer != nil {
		return m.sizer.FootprintBytes()
	}
	return 0
}

// monitoredSet wraps a Set and counts its critical operations (see
// monitoredList).
type monitoredSet[T comparable] struct {
	inner     collections.Set[T]
	sh        *pshard
	maskBytes uintptr
	sizer     collections.Sizer
	p         *profile
}

func (m *monitoredSet[T]) Add(v T) bool {
	sh := stripeOf(m.sh, m.maskBytes)
	sh.adds.Add(1)
	changed := m.inner.Add(v)
	sh.observeSize(m.inner.Len())
	runtime.KeepAlive(m)
	return changed
}

func (m *monitoredSet[T]) Remove(v T) bool {
	stripeOf(m.sh, m.maskBytes).middles.Add(1)
	return m.inner.Remove(v)
}

func (m *monitoredSet[T]) Contains(v T) bool {
	stripeOf(m.sh, m.maskBytes).contains.Add(1)
	return m.inner.Contains(v)
}

func (m *monitoredSet[T]) Len() int { return m.inner.Len() }

func (m *monitoredSet[T]) Clear() { m.inner.Clear() }

func (m *monitoredSet[T]) ForEach(fn func(T) bool) {
	stripeOf(m.sh, m.maskBytes).iterates.Add(1)
	m.inner.ForEach(fn)
}

func (m *monitoredSet[T]) FootprintBytes() int {
	if m.sizer != nil {
		return m.sizer.FootprintBytes()
	}
	return 0
}

// monitoredMap wraps a Map and counts its critical operations (see
// monitoredList).
type monitoredMap[K comparable, V any] struct {
	inner     collections.Map[K, V]
	sh        *pshard
	maskBytes uintptr
	sizer     collections.Sizer
	p         *profile
}

func (m *monitoredMap[K, V]) Put(k K, v V) (V, bool) {
	sh := stripeOf(m.sh, m.maskBytes)
	sh.adds.Add(1)
	old, present := m.inner.Put(k, v)
	sh.observeSize(m.inner.Len())
	runtime.KeepAlive(m)
	return old, present
}

func (m *monitoredMap[K, V]) Get(k K) (V, bool) {
	stripeOf(m.sh, m.maskBytes).contains.Add(1)
	return m.inner.Get(k)
}

func (m *monitoredMap[K, V]) Remove(k K) (V, bool) {
	stripeOf(m.sh, m.maskBytes).middles.Add(1)
	return m.inner.Remove(k)
}

func (m *monitoredMap[K, V]) ContainsKey(k K) bool {
	stripeOf(m.sh, m.maskBytes).contains.Add(1)
	return m.inner.ContainsKey(k)
}

func (m *monitoredMap[K, V]) Len() int { return m.inner.Len() }

func (m *monitoredMap[K, V]) Clear() { m.inner.Clear() }

func (m *monitoredMap[K, V]) ForEach(fn func(K, V) bool) {
	stripeOf(m.sh, m.maskBytes).iterates.Add(1)
	m.inner.ForEach(fn)
}

func (m *monitoredMap[K, V]) FootprintBytes() int {
	if m.sizer != nil {
		return m.sizer.FootprintBytes()
	}
	return 0
}
