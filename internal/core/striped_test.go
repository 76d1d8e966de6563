package core

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/collections"
)

// newProfile sizes its stripe set by GOMAXPROCS, so on a narrow host the
// engine only ever builds single-stripe profiles. These tests build profiles
// of a chosen stripe count directly and pin the exact-counting contract of
// the monitors for one stripe (the GOMAXPROCS=1 case) and for many.

// multiStripeProfile returns a profile with the given power-of-two stripe
// count, bypassing the GOMAXPROCS-scaled pool.
func multiStripeProfile(stripes int) *profile {
	return &profile{shards: make([]pshard, stripes)}
}

// isMonitoredList reports whether c is a monitor rather than a bare variant.
func isMonitoredList[T comparable](c collections.List[T]) bool {
	_, ok := c.(*monitoredList[T])
	return ok
}

func isMonitoredSet[T comparable](c collections.Set[T]) bool {
	_, ok := c.(*monitoredSet[T])
	return ok
}

// TestStripeOfBoundsAndAlignment pins the unsafe arithmetic inside stripeOf:
// from any goroutine's stack address the selected stripe must be one of the
// profile's stripes — a 64-byte-aligned offset inside the array — never a
// byte address beyond it.
func TestStripeOfBoundsAndAlignment(t *testing.T) {
	p := multiStripeProfile(8)
	base := uintptr(unsafe.Pointer(p.base()))
	var wg sync.WaitGroup
	offsets := make([]uintptr, 64)
	for g := range offsets {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			offsets[g] = uintptr(unsafe.Pointer(stripeOf(p.base(), p.maskBytes()))) - base
		}(g)
	}
	wg.Wait()
	distinct := map[uintptr]bool{}
	for g, off := range offsets {
		if off%cacheLineBytes != 0 {
			t.Errorf("goroutine %d: stripe offset %d not cache-line aligned", g, off)
		}
		if off >= uintptr(len(p.shards))*cacheLineBytes {
			t.Errorf("goroutine %d: stripe offset %d beyond the stripe array", g, off)
		}
		distinct[off] = true
	}
	t.Logf("64 goroutines spread over %d of %d stripes", len(distinct), len(p.shards))
}

// TestStripedSetCountsExactly hammers one set monitor from many goroutines
// and asserts the stripe sums are exact: every operation incremented exactly
// one stripe once, so the folded Workload equals the reference counts
// regardless of how the stack hash spread the writers. A single stripe takes
// every writer on one cache line; eight spread them.
func TestStripedSetCountsExactly(t *testing.T) {
	for _, stripes := range []int{1, 8} {
		t.Run(fmt.Sprintf("stripes=%d", stripes), func(t *testing.T) {
			p := multiStripeProfile(stripes)
			_, s := wrapSet[int](collections.NewSyncSet[int](0), p)
			const goroutines = 8
			const perG = 5000
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						s.Add(g*perG + i)
						s.Contains(i)
						if i%64 == 63 {
							s.ForEach(func(int) bool { return false })
						}
					}
				}(g)
			}
			wg.Wait()
			w := p.snapshot()
			if w.Adds != goroutines*perG {
				t.Errorf("Adds = %d, want %d", w.Adds, goroutines*perG)
			}
			if w.Contains != goroutines*perG {
				t.Errorf("Contains = %d, want %d", w.Contains, goroutines*perG)
			}
			if want := int64(goroutines * (perG / 64)); w.Iterates != want {
				t.Errorf("Iterates = %d, want %d", w.Iterates, want)
			}
			// All inserted values are distinct, so the last-completing Add
			// observed the full set: the high-water mark must be exact, not
			// approximate.
			if w.MaxSize != goroutines*perG {
				t.Errorf("MaxSize = %d, want %d", w.MaxSize, goroutines*perG)
			}
			if s.Len() != goroutines*perG {
				t.Errorf("Len = %d, want %d", s.Len(), goroutines*perG)
			}
		})
	}
}

// TestStripedMonitorsCountEveryMethod drives every counting method of the
// list, set and map monitors on one goroutine and checks each landed in the
// right counter — guarding against a method that delegates without counting
// (or counts into the wrong column). It also pins what wrap builds: the
// pointer siteCore keeps a weak reference to and the interface the user gets
// are one object, carrying the profile's stripe mask.
func TestStripedMonitorsCountEveryMethod(t *testing.T) {
	for _, stripes := range []int{1, 4} {
		t.Run(fmt.Sprintf("stripes=%d", stripes), func(t *testing.T) {
			mask := uintptr(stripes-1) * cacheLineBytes
			pl := multiStripeProfile(stripes)
			ml, l := wrapList[int](collections.NewArrayList[int](), pl)
			if l != collections.List[int](ml) || ml.maskBytes != mask {
				t.Fatalf("wrapList: aliased=%v maskBytes=%d, want true and %d", l == collections.List[int](ml), ml.maskBytes, mask)
			}
			l.Add(1)                                  // adds
			l.Add(2)                                  // adds
			l.Insert(1, 3)                            // adds + middles (interior insert)
			l.Insert(3, 4)                            // adds (append position)
			l.Contains(1)                             // contains
			l.IndexOf(2)                              // contains
			l.Remove(4)                               // contains + middles
			l.RemoveAt(0)                             // middles
			l.ForEach(func(int) bool { return true }) // iterates
			if w := pl.snapshot(); w.Adds != 4 || w.Contains != 3 || w.Middles != 3 || w.Iterates != 1 || w.MaxSize != 4 {
				t.Errorf("list workload = %+v", w)
			}

			ps := multiStripeProfile(stripes)
			ms, s := wrapSet[int](collections.NewArraySet[int](), ps)
			if s != collections.Set[int](ms) || ms.maskBytes != mask {
				t.Fatalf("wrapSet: aliased=%v maskBytes=%d, want true and %d", s == collections.Set[int](ms), ms.maskBytes, mask)
			}
			s.Add(1)
			s.Add(2)
			s.Contains(1)
			s.Remove(2)
			s.ForEach(func(int) bool { return true })
			if w := ps.snapshot(); w.Adds != 2 || w.Contains != 1 || w.Middles != 1 || w.Iterates != 1 || w.MaxSize != 2 {
				t.Errorf("set workload = %+v", w)
			}

			pm := multiStripeProfile(stripes)
			mm, m := wrapMap[int, int](collections.NewArrayMap[int, int](), pm)
			if m != collections.Map[int, int](mm) || mm.maskBytes != mask {
				t.Fatalf("wrapMap: aliased=%v maskBytes=%d, want true and %d", m == collections.Map[int, int](mm), mm.maskBytes, mask)
			}
			m.Put(1, 10)
			m.Put(2, 20)
			m.Get(1)
			m.ContainsKey(2)
			m.Remove(1)
			m.ForEach(func(int, int) bool { return true })
			if w := pm.snapshot(); w.Adds != 2 || w.Contains != 2 || w.Middles != 1 || w.Iterates != 1 || w.MaxSize != 2 {
				t.Errorf("map workload = %+v", w)
			}
		})
	}
}
