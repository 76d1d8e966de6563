package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// The instance profile is the record path of the whole framework: every
// critical operation on a monitored collection lands here. Under saturation
// (all cores busy, many goroutines sharing one monitored instance) a single
// set of per-instance atomics becomes a cache-line ping-pong hot spot, so the
// counters are striped: a profile owns a small power-of-two set of
// cache-line-padded stripes, each operation increments the stripe a cheap
// per-goroutine hash selects (monitor.go, stripeOf), and the stripes are
// summed only when the analyzer folds the instance. Increments from
// different cores land on different cache lines, which removes the
// cross-core contention while keeping every count exact — the stripe sum
// equals the total number of increments, and the per-stripe maximum-size
// high-water marks combine into exactly the global maximum
// (TestProfileShardsSumExactly).
//
// On a GOMAXPROCS=1 process the profile collapses to a single stripe: the
// selection mask is zero and every operation lands on stripe 0 through the
// same monitor code.

// cacheLineBytes is the coherence granularity the stripes are padded to.
const cacheLineBytes = 64

// pshard is one counter stripe. The five counters occupy 40 bytes; the pad
// grows the struct to one full cache line so neighboring stripes never share
// a line (the false sharing the striping exists to avoid). stripeOf indexes
// the stripe array by byte offset, so the size must stay exactly
// cacheLineBytes (asserted at compile time below).
type pshard struct {
	adds     atomic.Int64 // Add/Insert/Put calls
	contains atomic.Int64 // Contains/IndexOf/Get/ContainsKey calls
	iterates atomic.Int64 // full traversals (ForEach)
	middles  atomic.Int64 // positional/middle mutations and removals
	maxSize  atomic.Int64 // high-water mark of Len()
	_        [cacheLineBytes - 5*8]byte
}

var (
	_ [cacheLineBytes - unsafe.Sizeof(pshard{})]byte
	_ [unsafe.Sizeof(pshard{}) - cacheLineBytes]byte
)

// observeSize raises the stripe's max-size high-water mark to at least n.
func (sh *pshard) observeSize(n int) {
	for {
		cur := sh.maxSize.Load()
		if int64(n) <= cur {
			return
		}
		if sh.maxSize.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// profile accumulates the workload of one monitored collection instance
// across its counter stripes. The monitored collection may live on any
// goroutine while the analyzer reads concurrently; every field access is
// atomic.
type profile struct {
	shards []pshard
}

// profileShardCount sizes a fresh profile's stripe set: the next power of
// two covering GOMAXPROCS (so the goroutine hash reduces to a mask), capped
// to bound the per-instance footprint on very wide machines.
func profileShardCount() int {
	n := runtime.GOMAXPROCS(0)
	if n > 64 {
		n = 64
	}
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// base returns the first stripe, the address stripeOf offsets from.
func (p *profile) base() *pshard { return &p.shards[0] }

// maskBytes returns the stripe-selection mask in bytes, (stripes-1)*64;
// zero for a single-stripe profile, which stripeOf maps to stripe 0.
func (p *profile) maskBytes() uintptr {
	return uintptr(len(p.shards)-1) * cacheLineBytes
}

// profilePool recycles profiles between monitoring windows: a window's worth
// of striped counters is the dominant allocation of the monitored-creation
// path, and sites churn through one profile per monitored instance. Entries
// are zeroed on release, so Get always hands back a clean profile. Profiles
// are recyclable precisely when their monitor has been collected (the weak
// reference reports nil): the monitor's death is what guarantees no recorder
// can still reach the counters. The monitor wrappers themselves cannot be
// pooled for the same reason in reverse — their collection by the GC is the
// instance-death signal, so by the time the framework knows one is free it
// no longer exists.
var profilePool = sync.Pool{New: func() any {
	return &profile{shards: make([]pshard, profileShardCount())}
}}

// newProfile returns a zeroed profile, recycled when one is available.
func newProfile() *profile {
	return profilePool.Get().(*profile)
}

// release zeroes the profile and returns it to the pool. Callers must
// guarantee no recorder can still reach it (see profilePool).
func (p *profile) release() {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.adds.Store(0)
		sh.contains.Store(0)
		sh.iterates.Store(0)
		sh.middles.Store(0)
		sh.maxSize.Store(0)
	}
	profilePool.Put(p)
}

// snapshot aggregates the stripes into the immutable Workload the analyzer
// folds: counters sum (each operation incremented exactly one stripe once),
// the size high-water mark is the maximum over stripes.
func (p *profile) snapshot() Workload {
	var w Workload
	for i := range p.shards {
		sh := &p.shards[i]
		w.Adds += sh.adds.Load()
		w.Contains += sh.contains.Load()
		w.Iterates += sh.iterates.Load()
		w.Middles += sh.middles.Load()
		if m := sh.maxSize.Load(); m > w.MaxSize {
			w.MaxSize = m
		}
	}
	return w
}
