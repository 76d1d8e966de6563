package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/apps"
	"repro/internal/obs"
)

// timestampRe strips the two wall-clock fields of a trace line: the envelope
// write-time stamp and the measured pass durations. Everything else — event
// kinds, order, per-context payloads, decisions — must be byte-identical.
var timestampRe = regexp.MustCompile(`"(time_unix_ns|duration_ns)":-?[0-9]+`)

func normalizeTrace(raw []byte) [][]byte {
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	out := make([][]byte, 0, len(lines))
	for _, l := range lines {
		if len(l) == 0 {
			continue
		}
		out = append(out, timestampRe.ReplaceAll(l, []byte(`"$1":0`)))
	}
	return out
}

// TestTable6TraceMatchesSeedFixture is the refactor's non-negotiable
// invariant in executable form: the Table 5/6 sweep at analysis parallelism
// 1 must produce a JSONL trace byte-identical — modulo timestamps — to the
// fixture captured before the sharded-profile/epoch-window refactor, with
// every event delivered through its own Sink.Emit call. Any change to what
// is monitored, folded, decided or emitted shows up as a diverging line.
// The fixture was generated with
//
//	go run ./cmd/experiments -exp table6 -quick -parallel 1 -trace <fixture>
//
// at the pre-refactor HEAD; regenerate it the same way (and justify the diff)
// when a deliberate behavior change is introduced.
func TestTable6TraceMatchesSeedFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("table 5 measurement is slow")
	}
	fixture, err := os.ReadFile(filepath.Join("testdata", "table6_trace_parallel1_seed.jsonl"))
	if err != nil {
		t.Fatalf("reading seed fixture: %v", err)
	}

	var trace bytes.Buffer
	sink := obs.NewJSONLSink(&trace)
	RunTable5Obs(QuickScale(), apps.Obs{Sink: sink, Metrics: obs.NewRegistry(), Parallelism: 1})
	if err := sink.Flush(); err != nil {
		t.Fatalf("flushing trace: %v", err)
	}

	want := normalizeTrace(fixture)
	got := normalizeTrace(trace.Bytes())
	if len(got) != len(want) {
		t.Fatalf("trace length: got %d events, fixture has %d", len(got), len(want))
	}
	diffs := 0
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			diffs++
			if diffs <= 3 {
				t.Errorf("trace line %d diverges from seed fixture:\n got  %s\nwant %s", i+1, got[i], want[i])
			}
		}
	}
	if diffs > 3 {
		t.Errorf("... and %d more diverging lines", diffs-3)
	}
}
