package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// TimedEvent is one flight-recorder entry: the event plus the wall-clock
// instant it was emitted.
type TimedEvent struct {
	When  time.Time
	Event Event
}

// FlightRecorder is the always-on crash/debug sink of the introspection
// layer: a fixed-capacity ring of the most recent events, each stamped with
// its emission time. The snapshot's timestamps let the /events endpoint and
// the SIGQUIT stderr dump reconstruct a timeline of the engine's last
// moments. Emit is cheap (one lock, no allocation beyond the entry slot) and
// safe for concurrent use.
type FlightRecorder struct {
	mu    sync.Mutex
	buf   []TimedEvent
	start int
	n     int
	total int64
}

// NewFlightRecorder returns a recorder retaining at most capacity events
// (minimum 1). Older events are evicted as newer ones arrive.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity < 1 {
		capacity = 1
	}
	return &FlightRecorder{buf: make([]TimedEvent, capacity)}
}

// Emit appends the event with the current time, evicting the oldest entry
// when full.
func (r *FlightRecorder) Emit(e Event) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = TimedEvent{When: now, Event: e}
		r.n++
		return
	}
	r.buf[r.start] = TimedEvent{When: now, Event: e}
	r.start = (r.start + 1) % len(r.buf)
}

// Snapshot returns the retained events, oldest first.
func (r *FlightRecorder) Snapshot() []TimedEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TimedEvent, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}

// Total returns the number of events ever emitted, including evicted ones.
func (r *FlightRecorder) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// WriteTo dumps the retained events as human-readable lines (timestamp,
// kind, Logline rendering), oldest first — the SIGQUIT stderr format.
func (r *FlightRecorder) WriteTo(w io.Writer) (int64, error) {
	snap := r.Snapshot()
	var written int64
	n, err := fmt.Fprintf(w, "collectionswitch flight recorder: last %d of %d events\n", len(snap), r.Total())
	written += int64(n)
	if err != nil {
		return written, err
	}
	for _, te := range snap {
		n, err := fmt.Fprintf(w, "%s [%s] %s\n",
			te.When.Format(time.RFC3339Nano), te.Event.EventKind(), Line(te.Event))
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}
