package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDecodeEvent feeds arbitrary lines to Decode, the decoder of untrusted
// JSONL traces. Every line must either be rejected with an error or
// round-trip: the decoded event, re-encoded through a JSONLSink, decodes to
// a deeply equal event, and the decoded timestamp, written back into that
// envelope, decodes to an equal timestamp.
func FuzzDecodeEvent(f *testing.F) {
	for _, k := range Kinds() {
		ev, ok := Prototype(k)
		if !ok {
			f.Fatalf("no prototype for registered kind %s", k)
		}
		f.Add(encodeLine(f, ev))
	}
	// Empty containers in omitempty fields, which the sink never writes.
	f.Add([]byte(`{"kind":"round_completed","time_unix_ns":0,"event":{"contexts":[]}}`))
	f.Add([]byte(`{"kind":"transition","time_unix_ns":-5,"event":{"ratios":{}}}`))

	f.Fuzz(func(t *testing.T, line []byte) {
		ev, when, err := Decode(line)
		if err != nil {
			return
		}
		again := encodeLine(t, ev)
		ev2, _, err := Decode(again)
		if err != nil {
			t.Fatalf("decoding the re-encoded line failed: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(ev2, ev) {
			t.Fatalf("event does not round-trip:\n got %#v\nwant %#v\nline %s", ev2, ev, again)
		}
		var env envelope
		if err := json.Unmarshal(again, &env); err != nil {
			t.Fatalf("re-encoded line is not an envelope: %v\n%s", err, again)
		}
		env.Time = when.UnixNano()
		stamped, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		_, when2, err := Decode(stamped)
		if err != nil {
			t.Fatalf("decoding the restamped line failed: %v\n%s", err, stamped)
		}
		if !when2.Equal(when) {
			t.Fatalf("timestamp does not round-trip: got %v, want %v", when2, when)
		}
	})
}

// encodeLine renders one event as the JSONL line a JSONLSink writes for it,
// without the trailing newline.
func encodeLine(tb testing.TB, ev Event) []byte {
	tb.Helper()
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Emit(ev)
	if err := s.Flush(); err != nil {
		tb.Fatalf("encoding %s: %v", ev.EventKind(), err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}
