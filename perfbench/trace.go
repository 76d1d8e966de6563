package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span names. Each names the layer the timed call enters; the benchmark
// records spans only around its own calls into the program.
const (
	spanPass     = iota // apps: one pass over the five applications
	spanApp             // apps: one apps.RunObs call
	spanEpoch           // svc: one request-count epoch (all workers)
	spanRequest         // svc: one client request: build, ServeHTTP, check
	spanHandler         // svc: the Handler().ServeHTTP call alone
	spanAnalyze         // svc: one driver-called Engine.AnalyzeNow
	spanForcedGC        // the benchmark's runtime.GC between units of work
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spanPass:     "bench.pass",
	spanApp:      "apps.run",
	spanEpoch:    "bench.epoch",
	spanRequest:  "bench.request",
	spanHandler:  "service.handler",
	spanAnalyze:  "core.analyze",
	spanForcedGC: "runtime.forced_gc",
}

// span is one timed interval. id and parent are global: the owning
// tracer's number in the top bits, the span's index below.
type span struct {
	start, end int64 // ns since the run's trace origin
	parent     int64 // -1 for a root span
	req        int64 // request id (svc) or app index (apps); -1 when none
	name       uint8
}

const spanIndexBits = 40

// tracer records the spans of one goroutine in memory; a nil *tracer
// records nothing, which is how untraced runs call the same code.
type tracer struct {
	num    int64
	origin time.Time
	spans  []span
}

// traceSet owns one tracer per recording goroutine, sharing one origin.
type traceSet struct {
	origin  time.Time
	tracers []*tracer
}

func newTraceSet() *traceSet { return &traceSet{origin: time.Now()} }

// tracer returns a new goroutine-local tracer (nil when ts is nil).
func (ts *traceSet) tracer() *tracer {
	if ts == nil {
		return nil
	}
	t := &tracer{num: int64(len(ts.tracers)), origin: ts.origin}
	ts.tracers = append(ts.tracers, t)
	return t
}

// begin opens a span and returns its global id (-1 when t is nil).
func (t *tracer) begin(name uint8, parent, req int64) int64 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{start: int64(time.Since(t.origin)), end: -1, parent: parent, req: req, name: name})
	return t.num<<spanIndexBits | int64(len(t.spans)-1)
}

// end closes the span id returned by begin.
func (t *tracer) end(id int64) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id&(1<<spanIndexBits-1)].end = int64(time.Since(t.origin))
}

// selfTimes returns, per span name, the summed self time in seconds — each
// span's duration minus the part of it its child spans cover — and the
// span count.
func (ts *traceSet) selfTimes() (self [numSpanNames]float64, count [numSpanNames]int) {
	children := make(map[int64][]*span)
	for _, t := range ts.tracers {
		for i := range t.spans {
			s := &t.spans[i]
			if s.parent >= 0 {
				children[s.parent] = append(children[s.parent], s)
			}
		}
	}
	for _, t := range ts.tracers {
		for i := range t.spans {
			s := &t.spans[i]
			if s.end < s.start {
				continue
			}
			id := t.num<<spanIndexBits | int64(i)
			self[s.name] += float64(s.end-s.start-covered(s, children[id])) / 1e9
			count[s.name]++
		}
	}
	return self, count
}

// covered returns how much of s the union of kids covers, in ns.
func covered(s *span, kids []*span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, k := range kids {
		lo, hi := max(k.start, s.start), min(k.end, s.end)
		if hi <= lo {
			continue
		}
		if lo > curHi {
			total += curHi - curLo
			curLo, curHi = lo, hi
			continue
		}
		curHi = max(curHi, hi)
	}
	return total + curHi - curLo
}

// spanCount returns the number of recorded spans.
func (ts *traceSet) spanCount() int {
	n := 0
	for _, t := range ts.tracers {
		n += len(t.spans)
	}
	return n
}

// writeTSV writes every span as one tab-separated line:
// name, id, parent, req, start_ns, end_ns.
func (ts *traceSet) writeTSV(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintln(bw, "name\tid\tparent\treq\tstart_ns\tend_ns")
	for _, t := range ts.tracers {
		for i, s := range t.spans {
			fmt.Fprintf(bw, "%s\t%d\t%d\t%d\t%d\t%d\n", spanNames[s.name],
				t.num<<spanIndexBits|int64(i), s.parent, s.req, s.start, s.end)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
