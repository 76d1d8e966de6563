package main

import (
	"math/bits"
	"sort"
	"time"
)

// subBits sets the histogram's resolution: values below 2^subBits ns get
// exact buckets, larger ones 2^subBits buckets per power of two, so a bucket
// is under 1% of its value wide.
const subBits = 7

// histBuckets covers every uint64 nanosecond value.
const histBuckets = (64 - subBits + 1) << subBits

// latHist is a fixed-size latency histogram over nanoseconds. Recording
// never allocates, so the benchmark's own memory stays the same however
// many requests a run completes.
type latHist struct {
	counts [histBuckets]uint64
	n      uint64
}

func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	shift := bits.Len64(v) - 1 - subBits
	return (shift+1)<<subBits + int(v>>uint(shift))&(1<<subBits-1)
}

// bucketRange returns the lowest value of bucket i and the bucket's width.
func bucketRange(i int) (lo, width float64) {
	if i < 1<<subBits {
		return float64(i), 1
	}
	shift := i>>subBits - 1
	mant := i & (1<<subBits - 1)
	return float64(uint64(1<<subBits+mant) << uint(shift)), float64(uint64(1) << uint(shift))
}

func (h *latHist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(uint64(d))]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolating linearly
// inside the bucket that holds the requested rank (0 when empty).
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, width := bucketRange(i)
			return lo + width*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := bucketRange(histBuckets - 1)
	return lo + width
}

// median returns the median of xs (0 when empty) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = min(lo, x)
		hi = max(hi, x)
	}
	return lo, hi
}
