package obs

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// allEvents returns one populated instance of every event type; the test
// table covers the full taxonomy so a new event cannot ship without
// round-trip coverage (the compile-time kinds list below enforces it).
func allEvents() []Event {
	return []Event{
		ContextRegistered{Engine: "e1", Context: "site:a"},
		ContextRegistered{Engine: "e1", Context: "site:late", Dropped: true},
		DuplicateContextName{Engine: "e1", Name: "site:a", Renamed: "site:a#2"},
		RoundStarted{Engine: "e1", Round: 3, Contexts: 2},
		ContextAnalyzed{Engine: "e1", Round: 3, Context: "site:a", DurationNs: 1800},
		RoundCompleted{Engine: "e1", Round: 3, DurationNs: 41500, Contexts: []ContextWindowStat{
			{Context: "site:a", Variant: "list/array", Round: 1, WindowFill: 37, Folded: 12, Cooldown: 0},
			{Context: "site:b", Variant: "map/hash", Round: 0, WindowFill: 100, Folded: 61, Cooldown: 300},
		}},
		WindowClosed{Engine: "e1", Context: "site:a", Round: 2, Variant: "list/hasharray",
			WindowSize: 100, Finished: 73, FinishedRatio: 0.73, SizeSpread: 12.5},
		Transition{Engine: "e1", Context: "site:a", From: "list/array", To: "list/hasharray",
			Round: 1, Ratios: map[string]float64{"time-ns": 0.41, "alloc-b": 1.02}},
		CooldownEntered{Engine: "e1", Context: "site:a", Round: 2, SkipNext: 300},
		ConfigClamped{Engine: "e1", Field: "FinishedRatio", From: 1.5, To: 1},
		EngineClosed{Engine: "e1", Contexts: 2, Rounds: 4, Transitions: 1},
		CheckCompleted{Variant: "set/hash", Abstraction: "set", Seed: 42, Ops: 400},
		CheckCompleted{Variant: "list/linked", Abstraction: "list", Seed: 7, Ops: 400, Diverged: true},
		CheckDivergence{Variant: "list/linked", Abstraction: "list", Seed: 7,
			OpIndex: 3, Ops: 4, Detail: "Get(2) = 5, oracle 9"},
		WarmStart{Engine: "e1", Context: "site:a", Variant: "list/hasharray"},
		CalibrationStarted{Engine: "e1", Sites: 2, Cells: 48},
		CalibrationCompleted{Engine: "e1", Measured: 31, Planned: 48, ShadowNs: 812_000, Swapped: true},
		CalibrationDrift{Engine: "e1", Context: "site:a", Drift: 0.82, Threshold: 0.5},
		StoreSaved{Path: "/tmp/store/store.json", Sites: 2, Curves: 96},
		StoreLoaded{Path: "/tmp/store/store.json", Sites: 2, Curves: 96},
		StoreRejected{Path: "/tmp/store/store.json", Reason: "fingerprint mismatch"},
	}
}

func TestEventTaxonomyCovered(t *testing.T) {
	kinds := []Kind{
		KindContextRegistered, KindDuplicateContextName,
		KindRoundStarted, KindRoundCompleted, KindContextAnalyzed,
		KindWindowClosed, KindTransition, KindCooldownEntered,
		KindConfigClamped, KindEngineClosed,
		KindCheckCompleted, KindCheckDivergence,
		KindWarmStart, KindCalibrationStarted, KindCalibrationCompleted,
		KindCalibrationDrift, KindStoreSaved, KindStoreLoaded, KindStoreRejected,
	}
	seen := make(map[Kind]bool)
	for _, e := range allEvents() {
		seen[e.EventKind()] = true
	}
	for _, k := range kinds {
		if !seen[k] {
			t.Errorf("allEvents has no instance of kind %s", k)
		}
	}
	if len(seen) != len(kinds) {
		t.Errorf("taxonomy drift: %d kinds seen, %d listed", len(seen), len(kinds))
	}
}

func TestJSONLRoundTripsEveryEventType(t *testing.T) {
	for _, want := range allEvents() {
		t.Run(string(want.EventKind()), func(t *testing.T) {
			var buf bytes.Buffer
			s := NewJSONLSink(&buf)
			s.Emit(want)
			if err := s.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			got, stamp, err := Decode(bytes.TrimSpace(buf.Bytes()))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if stamp.IsZero() {
				t.Error("decoded timestamp is zero")
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("round trip mismatch:\n got %#v\nwant %#v", got, want)
			}
		})
	}
}

func TestReadAllPreservesOrder(t *testing.T) {
	events := allEvents()
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	for _, e := range events {
		s.Emit(e)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatalf("readall: %v", err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Errorf("stream mismatch:\n got %v\nwant %v", got, events)
	}
}

func TestDecodeRejectsUnknownKind(t *testing.T) {
	if _, _, err := Decode([]byte(`{"kind":"nonsense","time_unix_ns":1,"event":{}}`)); err == nil {
		t.Fatal("expected error for unknown kind")
	}
	if _, _, err := Decode([]byte(`not json`)); err == nil {
		t.Fatal("expected error for malformed line")
	}
}

func TestCollectorKeepsEverything(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 100; i++ {
		c.Emit(RoundStarted{Round: i})
	}
	events := c.Events()
	if len(events) != 100 {
		t.Fatalf("len = %d, want 100", len(events))
	}
	if events[99].(RoundStarted).Round != 99 {
		t.Error("order not preserved")
	}
}

func TestMultiFanoutOrdering(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	m := Multi(a, nil, b)
	events := allEvents()
	for _, e := range events {
		m.Emit(e)
	}
	if !reflect.DeepEqual(a.Events(), events) || !reflect.DeepEqual(b.Events(), events) {
		t.Error("fan-out did not deliver identical ordered streams to both sinks")
	}
}

func TestMultiCollapses(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("empty Multi should collapse to nil")
	}
	c := NewCollector()
	if got := Multi(nil, c); got != Sink(c) {
		t.Error("single-sink Multi should collapse to the sink itself")
	}
}

// TestMultiFlushDrainsBufferingChildren pins that FlushSink reaches a
// buffering child through a multiplexer: events emitted into Multi sit in
// the JSONL buffer until the flush, then decode in emission order.
func TestMultiFlushDrainsBufferingChildren(t *testing.T) {
	var buf bytes.Buffer
	jsonl := NewJSONLSink(&buf)
	col := NewCollector()
	m := Multi(jsonl, col)
	events := allEvents()
	for _, e := range events {
		m.Emit(e)
	}
	if buf.Len() != 0 {
		t.Fatal("JSONL buffer drained before flush — expected buffering")
	}
	if err := FlushSink(m); err != nil {
		t.Fatalf("FlushSink(multi): %v", err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Errorf("JSONL via Multi:\n got %v\nwant %v", got, events)
	}
	// FlushSink on a non-buffering sink is a no-op, not an error.
	if err := FlushSink(col); err != nil {
		t.Errorf("FlushSink(collector) = %v, want nil", err)
	}
}

// TestLogfAdapterLegacyFormats pins the adapter output to the exact lines
// the legacy Config.Logf hook produced (see core's historical trace tests).
func TestLogfAdapterLegacyFormats(t *testing.T) {
	var lines []string
	sink := NewLogfSink(func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	})
	for _, e := range []Event{
		ContextRegistered{Context: "trace:list"},
		Transition{Context: "trace:list", Round: 0, From: "list/array", To: "list/hasharray"},
		WindowClosed{Context: "trace:list", Round: 1, Variant: "list/hasharray"},
	} {
		sink.Emit(e)
	}
	want := []string{
		"context registered: trace:list",
		"transition at trace:list (round 0): list/array -> list/hasharray",
		"round 1 complete at trace:list (variant list/hasharray)",
	}
	if !reflect.DeepEqual(lines, want) {
		t.Errorf("legacy format drift:\n got %q\nwant %q", lines, want)
	}
}

func TestLineRendersEveryEvent(t *testing.T) {
	for _, e := range allEvents() {
		if s := Line(e); s == "" || strings.Contains(s, "%!") {
			t.Errorf("%s: bad rendering %q", e.EventKind(), s)
		}
	}
}

func TestNilLogfSinkDropsEvents(t *testing.T) {
	s := NewLogfSink(nil)
	s.Emit(RoundStarted{}) // must not panic
}
