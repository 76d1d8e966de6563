package perfmodel

import (
	"bytes"
	"testing"

	"repro/internal/collections"
	"repro/internal/polyfit"
)

// FuzzReadModels feeds arbitrary bytes to ReadJSON, the decoder of the
// untrusted -models file. Every input must either be rejected with an error
// or decode to models that re-encode stably: the second and third WriteJSON
// encodings in a decode/encode chain must be byte-identical. (The first may
// legitimately differ from the second — decoding normalizes invalid UTF-8 in
// names, which can merge curves that were distinct in the raw input.)
func FuzzReadModels(f *testing.F) {
	// A small written model set: the full default set is large enough that
	// minimizing mutations of it stalls a short fuzzing budget.
	seed := NewModels()
	seed.SetFingerprint(CollectFingerprint())
	seed.Set(collections.ArrayListID, OpContains, DimTimeNS, polyfit.Poly{Coeffs: []float64{4, 0.45}})
	seed.SetPiecewiseWithVar(collections.AdaptiveSetID, OpPopulate, DimFootprint, 40,
		polyfit.Poly{Coeffs: []float64{1, 2}}, polyfit.Poly{Coeffs: []float64{0.5}},
		polyfit.Poly{Coeffs: []float64{3, 0, 1e-3}}, polyfit.Poly{Coeffs: []float64{0.25, 0.01}})
	var written bytes.Buffer
	if err := seed.WriteJSON(&written); err != nil {
		f.Fatal(err)
	}
	f.Add(written.Bytes())
	f.Add([]byte(`{"curves":[{"variant":"list/array","op":"contains","dimension":"time-ns","pieces":[{"coeffs":[4,0.45]}]}]}`))
	f.Add([]byte(`{"schema":2,"fingerprint":{"goos":"linux","goarch":"amd64","cpu_model":"x","gomaxprocs":2,"go_version":"go1.24"},` +
		`"curves":[{"variant":"set/adaptive","op":"populate","dimension":"footprint","pieces":[{"upTo":40,"coeffs":[1,2],"var":[0.5]},{"coeffs":[3]}]}]}`))
	f.Add([]byte(`{"schema":3,"curves":[]}`))
	f.Add([]byte(`{"curves":[{"variant":"a","op":"b","dimension":"c","pieces":[]}]}`))
	f.Add([]byte(`{"curves":[{"variant":"a\xff","op":"b","dimension":"c","pieces":[{"coeffs":[1]}]},{"variant":"a\xfe","op":"b","dimension":"c","pieces":[{"coeffs":[2]}]}]}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc [3][]byte
		for i := range enc {
			var buf bytes.Buffer
			if err := m.WriteJSON(&buf); err != nil {
				t.Fatalf("encoding %d of decoded models failed: %v", i+1, err)
			}
			enc[i] = buf.Bytes()
			if m, err = ReadJSON(bytes.NewReader(enc[i])); err != nil {
				t.Fatalf("decoding encoding %d failed: %v\n%s", i+1, err, enc[i])
			}
		}
		if !bytes.Equal(enc[1], enc[2]) {
			t.Fatalf("re-encoding is not stable:\nsecond:\n%s\nthird:\n%s", enc[1], enc[2])
		}
	})
}
