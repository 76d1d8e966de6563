package polyfit

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func approxEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFitExactLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2 + 3*x
	}
	p, err := fit(xs, ys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(p.Coeffs[0], 2, 1e-9) || !approxEqual(p.Coeffs[1], 3, 1e-9) {
		t.Fatalf("coeffs = %v, want [2 3]", p.Coeffs)
	}
}

func TestFitExactCubic(t *testing.T) {
	want := []float64{1, -2, 0.5, 0.25}
	xs := []float64{1, 2, 5, 10, 20, 50, 100}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = want[0] + want[1]*x + want[2]*x*x + want[3]*x*x*x
	}
	p, err := fit(xs, ys, 3)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if !approxEqual(p.Coeffs[k], want[k], 1e-6*math.Max(1, math.Abs(want[k]))) {
			t.Fatalf("coeff[%d] = %g, want %g (all %v)", k, p.Coeffs[k], want[k], p.Coeffs)
		}
	}
	if rmse := RMSE(p, xs, ys); rmse > 1e-6 {
		t.Fatalf("RMSE of exact fit = %g", rmse)
	}
}

func TestFitNoisyQuadraticCloseEnough(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		x := float64(i + 1)
		xs[i] = x
		ys[i] = 5 + 0.1*x + 0.02*x*x + r.NormFloat64()*0.5
	}
	p, err := fit(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(p.Coeffs[2], 0.02, 0.002) {
		t.Fatalf("quadratic coefficient = %g, want ~0.02", p.Coeffs[2])
	}
	if rmse := RMSE(p, xs, ys); rmse > 1.0 {
		t.Fatalf("RMSE = %g, want < 1", rmse)
	}
}

func TestFitDegreeZero(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{10, 12, 8, 10}
	p, err := fit(xs, ys, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(p.Coeffs[0], 10, 1e-9) {
		t.Fatalf("constant fit = %g, want mean 10", p.Coeffs[0])
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := fit([]float64{1, 2}, []float64{1, 2, 3}, 1); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := fit([]float64{1, 2}, []float64{1, 2}, 3); err == nil {
		t.Error("degree >= sample count accepted")
	}
	if _, err := fit(nil, nil, 1); err == nil {
		t.Error("empty samples accepted")
	}
	if _, err := fit([]float64{1, 2, 3}, []float64{1, 2, 3}, -1); err == nil {
		t.Error("negative degree accepted")
	}
	// Singular: all x identical.
	if _, err := fit([]float64{5, 5, 5}, []float64{1, 2, 3}, 1); err == nil {
		t.Error("degenerate x values accepted")
	}
}

func TestEvalHorner(t *testing.T) {
	p := Poly{Coeffs: []float64{1, 2, 3}} // 1 + 2x + 3x²
	cases := map[float64]float64{0: 1, 1: 6, 2: 17, -1: 2}
	for x, want := range cases {
		if got := p.Eval(x); !approxEqual(got, want, 1e-12) {
			t.Errorf("Eval(%g) = %g, want %g", x, got, want)
		}
	}
	if got := (Poly{}).Eval(3); got != 0 {
		t.Errorf("empty poly Eval = %g, want 0", got)
	}
}

func TestDegree(t *testing.T) {
	if d := (Poly{}).Degree(); d != -1 {
		t.Errorf("empty Degree = %d, want -1", d)
	}
	if d := (Poly{Coeffs: []float64{1, 2, 3, 4}}).Degree(); d != 3 {
		t.Errorf("Degree = %d, want 3", d)
	}
}

func TestString(t *testing.T) {
	p := Poly{Coeffs: []float64{1.5, 2, 0.25}}
	s := p.String()
	for _, want := range []string{"1.5", "2*x", "0.25*x^2"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	if (Poly{}).String() != "0" {
		t.Errorf("empty String() = %q, want \"0\"", (Poly{}).String())
	}
}

func TestResiduals(t *testing.T) {
	p := Poly{Coeffs: []float64{0, 1}} // y = x
	res := Residuals(p, []float64{1, 2, 3}, []float64{1, 3, 2})
	want := []float64{0, 1, -1}
	for i := range want {
		if !approxEqual(res[i], want[i], 1e-12) {
			t.Fatalf("Residuals = %v, want %v", res, want)
		}
	}
}

// Property: fitting a polynomial to points generated from that polynomial
// recovers a curve that reproduces the points, for random polynomials.
func TestFitRoundTripProperty(t *testing.T) {
	type coeffSeed struct {
		A, B, C float64
	}
	f := func(seed coeffSeed) bool {
		// Clamp coefficient magnitudes to keep the system well-conditioned.
		a := math.Mod(seed.A, 100)
		b := math.Mod(seed.B, 10)
		c := math.Mod(seed.C, 1)
		truth := Poly{Coeffs: []float64{a, b, c}}
		xs := []float64{1, 3, 7, 15, 40, 90, 200}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = truth.Eval(x)
		}
		p, err := fit(xs, ys, 2)
		if err != nil {
			return false
		}
		for _, x := range []float64{2, 10, 100, 150} {
			want := truth.Eval(x)
			tol := 1e-6 * math.Max(1, math.Abs(want))
			if !approxEqual(p.Eval(x), want, tol) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(coeffSeed{
				A: r.Float64()*200 - 100,
				B: r.Float64()*20 - 10,
				C: r.Float64()*2 - 1,
			})
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: the least-squares fit never has a larger RMSE than the same-
// degree fit through any perturbed coefficient vector (local optimality
// check against a few perturbations).
func TestFitIsLeastSquares(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	xs := make([]float64, 50)
	ys := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(i + 1)
		ys[i] = 3 + 0.5*xs[i] + r.NormFloat64()*2
	}
	p, err := fit(xs, ys, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := RMSE(p, xs, ys)
	for trial := 0; trial < 100; trial++ {
		q := Poly{Coeffs: []float64{
			p.Coeffs[0] + r.NormFloat64()*0.1,
			p.Coeffs[1] + r.NormFloat64()*0.01,
		}}
		if RMSE(q, xs, ys) < base-1e-9 {
			t.Fatalf("perturbed poly %v beats least-squares fit %v", q.Coeffs, p.Coeffs)
		}
	}
}

func TestScaleAdd(t *testing.T) {
	p := Poly{Coeffs: []float64{1, 2}}
	q := Poly{Coeffs: []float64{10, 0, 3}}
	s := Scale(p, 2)
	if s.Eval(5) != 2*p.Eval(5) {
		t.Fatalf("Scale wrong: %v", s.Coeffs)
	}
	a := Add(p, q)
	for _, x := range []float64{0, 1, 7} {
		if got, want := a.Eval(x), p.Eval(x)+q.Eval(x); !approxEqual(got, want, 1e-12) {
			t.Fatalf("Add(%g) = %g, want %g", x, got, want)
		}
	}
	// Add must not mutate inputs.
	if len(p.Coeffs) != 2 || p.Coeffs[1] != 2 {
		t.Fatal("Add mutated its input")
	}
}
