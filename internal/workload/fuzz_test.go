package workload

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseServicePhases feeds arbitrary specs to ParseServicePhases, the
// parser behind collload's -phases flag. Every spec must either be rejected
// with an error or yield phases that each name a known mix and carry a
// positive duration; formatting those phases back as name:duration pairs
// must re-parse to equal phases.
func FuzzParseServicePhases(f *testing.F) {
	for _, spec := range []string{
		"write:5s,read:5s,scan:5s",
		"write:5s, read:250ms ,scan:1m",
		"MIXED:1h2m3.5s",
		"read:1ns",
		"write:0s",
		"write:-1s",
		"scan",
		"nosuch:1s",
		",",
		"",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		phases, err := ParseServicePhases(spec)
		if err != nil {
			return
		}
		if len(phases) == 0 {
			t.Fatalf("ParseServicePhases(%q) accepted a spec with no phases", spec)
		}
		parts := make([]string, len(phases))
		for i, p := range phases {
			mix, ok := MixByName(p.Name)
			if !ok || mix != p.Mix {
				t.Fatalf("ParseServicePhases(%q): phase %d names %q, not its known mix", spec, i, p.Name)
			}
			if p.Duration <= 0 {
				t.Fatalf("ParseServicePhases(%q): phase %d has duration %v", spec, i, p.Duration)
			}
			parts[i] = p.Name + ":" + p.Duration.String()
		}
		formatted := strings.Join(parts, ",")
		again, err := ParseServicePhases(formatted)
		if err != nil {
			t.Fatalf("re-parsing %q (from %q): %v", formatted, spec, err)
		}
		if !reflect.DeepEqual(again, phases) {
			t.Fatalf("re-parsing %q (from %q):\n got %+v\nwant %+v", formatted, spec, again, phases)
		}
	})
}
