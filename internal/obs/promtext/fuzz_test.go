package promtext

import (
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// FuzzParse feeds arbitrary bytes to Parse, which must never panic. An
// exposition that Parse accepts and Validate passes must survive a round
// trip: rendered back out by render and parsed again, it yields the same
// families.
func FuzzParse(f *testing.F) {
	r := obs.NewRegistry()
	r.InstancesCreated.Add(7)
	r.AnalysisLatency.Observe(0.003)
	r.IncTransition("hostile\"site\\with\nnewline", "a", "b")
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		f.Fatalf("WriteTo: %v", err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("# HELP m one metric\n# TYPE m gauge\nm{a=\"x\",b=\"q\\\"\\n\"} -Inf 17\nm NaN\n"))
	f.Add([]byte("# HELP m ends in CR\r\r\n# TYPE m counter\nm 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fams, err := Parse(bytes.NewReader(data))
		if err != nil || Validate(fams) != nil {
			return
		}
		text := render(fams)
		again, err := Parse(strings.NewReader(text))
		if err != nil {
			t.Fatalf("rendered exposition does not parse: %v\n%s", err, text)
		}
		if !sameFamilies(fams, again) {
			t.Fatalf("round trip changed the families:\n%#v\n%#v\nrendered:\n%q", fams, again, text)
		}
	})
}

// render writes families in the text format: HELP and TYPE first, then the
// samples with their labels in name order, label values escaped.
func render(fams []Family) string {
	esc := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	var b strings.Builder
	for _, f := range fams {
		b.WriteString("# HELP " + f.Name + " " + f.Help + "\n")
		b.WriteString("# TYPE " + f.Name + " " + f.Type + "\n")
		for _, s := range f.Samples {
			b.WriteString(s.Name)
			if len(s.Labels) > 0 {
				names := make([]string, 0, len(s.Labels))
				for n := range s.Labels {
					names = append(names, n)
				}
				sort.Strings(names)
				sep := "{"
				for _, n := range names {
					b.WriteString(sep + n + `="` + esc.Replace(s.Labels[n]) + `"`)
					sep = ","
				}
				b.WriteString("}")
			}
			b.WriteString(" " + formatValue(s.Value) + "\n")
		}
	}
	return b.String()
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sameFamilies compares parsed expositions; a nil and an empty label set
// are the same, and NaN equals NaN.
func sameFamilies(a, b []Family) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		fa, fb := a[i], b[i]
		if fa.Name != fb.Name || fa.Help != fb.Help || fa.Type != fb.Type || len(fa.Samples) != len(fb.Samples) {
			return false
		}
		for j := range fa.Samples {
			sa, sb := fa.Samples[j], fb.Samples[j]
			if sa.Name != sb.Name || len(sa.Labels) != len(sb.Labels) {
				return false
			}
			if sa.Value != sb.Value && !(math.IsNaN(sa.Value) && math.IsNaN(sb.Value)) {
				return false
			}
			for k, v := range sa.Labels {
				if w, ok := sb.Labels[k]; !ok || w != v {
					return false
				}
			}
		}
	}
	return true
}
