package perfmodel

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/polyfit"
)

// Curves stored with variance must answer CostSE; curves without must
// degrade to exact point estimates.
func TestCostSEAndCI(t *testing.T) {
	m := NewModels()
	m.SetWithVar("v", OpContains, DimTimeNS,
		polyfit.Poly{Coeffs: []float64{10, 2}}, // cost = 10 + 2s
		polyfit.Poly{Coeffs: []float64{4, 0, 0.01}} /* var = 4 + 0.01s² */)
	cost, se, ok := m.CostSE("v", OpContains, DimTimeNS, 10)
	if !ok {
		t.Fatal("variance-carrying curve reported ok=false")
	}
	if cost != 30 {
		t.Errorf("cost = %g, want 30", cost)
	}
	if want := math.Sqrt(4 + 0.01*100); math.Abs(se-want) > 1e-12 {
		t.Errorf("se = %g, want %g", se, want)
	}

	// No variance info: ok=false, zero-width interval.
	m.Set("v", OpMiddle, DimTimeNS, polyfit.Poly{Coeffs: []float64{7}})
	if _, se, ok := m.CostSE("v", OpMiddle, DimTimeNS, 3); ok || se != 0 {
		t.Errorf("plain curve: se=%g ok=%v, want 0/false", se, ok)
	}
}

// The piecewise setter keeps one variance curve per regime.
func TestSetPiecewiseWithVar(t *testing.T) {
	m := NewModels()
	m.SetPiecewiseWithVar("v", OpContains, DimTimeNS, 100,
		polyfit.Poly{Coeffs: []float64{1}}, polyfit.Poly{Coeffs: []float64{0.25}},
		polyfit.Poly{Coeffs: []float64{5}}, polyfit.Poly{Coeffs: []float64{9}})
	if _, se, ok := m.CostSE("v", OpContains, DimTimeNS, 50); !ok || se != 0.5 {
		t.Errorf("below regime se = %g, want 0.5", se)
	}
	if _, se, ok := m.CostSE("v", OpContains, DimTimeNS, 500); !ok || se != 3 {
		t.Errorf("above regime se = %g, want 3", se)
	}
}

// JSON round-trip preserves the variance polynomials and the schema version.
func TestJSONRoundTripVariance(t *testing.T) {
	m := NewModels()
	m.SetWithVar("v1", OpContains, DimTimeNS,
		polyfit.Poly{Coeffs: []float64{1, 2, 3}},
		polyfit.Poly{Coeffs: []float64{0.5, 0, 0.25}})
	m.SetPiecewiseWithVar("v2", OpPopulate, DimAllocB, 64,
		polyfit.Poly{Coeffs: []float64{10}}, polyfit.Poly{Coeffs: []float64{1}},
		polyfit.Poly{Coeffs: []float64{20}}, polyfit.Poly{Coeffs: []float64{2}})
	m.Set("v3", OpIterate, DimTimeNS, polyfit.Poly{Coeffs: []float64{4}})

	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"schema": 2`) {
		t.Error("serialized models missing schema version 2")
	}
	got, err := ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []float64{1, 32, 64, 100, 1e4} {
		wc, wse, wok := m.CostSE("v1", OpContains, DimTimeNS, size)
		gc, gse, gok := got.CostSE("v1", OpContains, DimTimeNS, size)
		if wc != gc || wse != gse || wok != gok {
			t.Errorf("v1 at %g: (%g,%g,%v) vs decoded (%g,%g,%v)", size, wc, wse, wok, gc, gse, gok)
		}
		wc, wse, wok = m.CostSE("v2", OpPopulate, DimAllocB, size)
		gc, gse, gok = got.CostSE("v2", OpPopulate, DimAllocB, size)
		if wc != gc || wse != gse || wok != gok {
			t.Errorf("v2 at %g: (%g,%g,%v) vs decoded (%g,%g,%v)", size, wc, wse, wok, gc, gse, gok)
		}
	}
	if _, _, ok := got.CostSE("v3", OpIterate, DimTimeNS, 5); ok {
		t.Error("variance invented for a curve stored without one")
	}
}

// Files written before the schema bump (no "schema", no "var") decode as
// curves without uncertainty; files from a future schema are rejected.
func TestJSONSchemaCompatibility(t *testing.T) {
	legacy := `{
  "curves": [
    {"variant": "v", "op": "contains", "dimension": "time-ns",
     "pieces": [{"upTo": 16, "coeffs": [1, 2]}, {"coeffs": [3]}]}
  ]
}`
	m, err := ReadJSON(strings.NewReader(legacy))
	if err != nil {
		t.Fatalf("legacy decode: %v", err)
	}
	if got := m.Cost("v", OpContains, DimTimeNS, 8); got != 17 {
		t.Errorf("legacy curve Cost(8) = %g, want 17", got)
	}
	if _, se, ok := m.CostSE("v", OpContains, DimTimeNS, 8); ok || se != 0 {
		t.Errorf("legacy curve reported uncertainty: se=%g ok=%v", se, ok)
	}

	future := `{"schema": 3, "curves": []}`
	if _, err := ReadJSON(strings.NewReader(future)); err == nil {
		t.Error("future schema accepted")
	}
}

// Measured overlay points carry their sampling error into the band variance,
// and bands without an SE stay exact.
func TestOverlayMeasuredVariance(t *testing.T) {
	m := NewModels()
	m.SetWithVar("v", OpContains, DimTimeNS,
		polyfit.Poly{Coeffs: []float64{100}}, polyfit.Poly{Coeffs: []float64{16}})
	m.OverlayMeasured("v", OpContains, DimTimeNS, []MeasuredPoint{
		{Size: 10, Value: 50, SE: 2},
		{Size: 1000, Value: 70},
	})
	// Inside the first band: measured value and its variance.
	if _, se, ok := m.CostSE("v", OpContains, DimTimeNS, 10); !ok || se != 2 {
		t.Errorf("band se = %g ok=%v, want 2/true", se, ok)
	}
	// Second band measured without SE: exact.
	if _, se, ok := m.CostSE("v", OpContains, DimTimeNS, 1000); ok || se != 0 {
		t.Errorf("SE-free band: se=%g ok=%v, want exact", se, ok)
	}
	// Outside the bands the prior variance survives.
	if _, se, ok := m.CostSE("v", OpContains, DimTimeNS, 1e6); !ok || se != 4 {
		t.Errorf("prior se = %g ok=%v, want 4/true", se, ok)
	}
	if got := m.Cost("v", OpContains, DimTimeNS, 1e6); got != 100 {
		t.Errorf("prior cost = %g, want 100", got)
	}
}
