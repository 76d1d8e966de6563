package polyfit

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// corpusCase mirrors the sample sets of the legacy fit tests so the ridge
// path can be compared against them coefficient by coefficient.
type corpusCase struct {
	name   string
	degree int
	xs, ys []float64
}

func legacyCorpus() []corpusCase {
	line := corpusCase{name: "exact-line", degree: 1, xs: []float64{0, 1, 2, 3, 4}}
	for _, x := range line.xs {
		line.ys = append(line.ys, 2+3*x)
	}
	cubic := corpusCase{name: "exact-cubic", degree: 3, xs: []float64{1, 2, 5, 10, 20, 50, 100}}
	for _, x := range cubic.xs {
		cubic.ys = append(cubic.ys, 1-2*x+0.5*x*x+0.25*x*x*x)
	}
	r := rand.New(rand.NewSource(7))
	noisy := corpusCase{name: "noisy-quadratic", degree: 2}
	for i := 0; i < 200; i++ {
		x := float64(i + 1)
		noisy.xs = append(noisy.xs, x)
		noisy.ys = append(noisy.ys, 5+0.1*x+0.02*x*x+r.NormFloat64()*0.5)
	}
	mean := corpusCase{name: "degree-zero", degree: 0, xs: []float64{1, 2, 3, 4}, ys: []float64{10, 12, 8, 10}}
	return []corpusCase{line, cubic, noisy, mean}
}

// Ridge at λ=0 must reproduce the legacy coefficients on the existing,
// well-conditioned corpus — bit-for-bit for degrees ≥ 1, where FitRidge
// delegates to fit outright.
func TestFitRidgeZeroMatchesLegacyCorpus(t *testing.T) {
	for _, c := range legacyCorpus() {
		legacy, err := fit(c.xs, c.ys, c.degree)
		if err != nil {
			t.Fatalf("%s: legacy fit: %v", c.name, err)
		}
		r, err := FitRidge(SamplesFromSlices(c.xs, c.ys), c.degree, 0)
		if err != nil {
			t.Fatalf("%s: ridge fit: %v", c.name, err)
		}
		if len(r.Poly.Coeffs) != len(legacy.Coeffs) {
			t.Fatalf("%s: coeff count %d vs legacy %d", c.name, len(r.Poly.Coeffs), len(legacy.Coeffs))
		}
		for k := range legacy.Coeffs {
			diff := math.Abs(r.Poly.Coeffs[k] - legacy.Coeffs[k])
			if diff > 1e-9 {
				t.Errorf("%s: coeff[%d] ridge %g vs legacy %g (|diff| %g > 1e-9)",
					c.name, k, r.Poly.Coeffs[k], legacy.Coeffs[k], diff)
			}
			if c.degree >= 1 && diff != 0 {
				t.Errorf("%s: coeff[%d] not bit-identical to legacy (diff %g)", c.name, k, diff)
			}
		}
		if want := float64(c.degree + 1); math.Abs(r.EffDF-want) > 1e-6 {
			t.Errorf("%s: EffDF at λ=0 = %g, want %g", c.name, r.EffDF, want)
		}
	}
}

// conditioningCase is the degree-3 system over sizes in [1e4, 1e6] whose raw
// normal equations span ~36 orders of magnitude.
func conditioningCase() (truth Poly, xs, ys []float64) {
	truth = Poly{Coeffs: []float64{50, 2e-2, 3e-8, 4e-14}}
	for i := 0; i < 16; i++ {
		x := 1e4 * math.Pow(1e2, float64(i)/15.0)
		xs = append(xs, x)
		ys = append(ys, truth.Eval(x))
	}
	return truth, xs, ys
}

// Regression for the scale-dependent pivot: degree 3 over sizes in
// [1e4, 1e6]. The raw-basis solver must either refuse (the relative pivot
// test catches the cancelled column) or miss by more than 1% RMSE — under
// the old absolute 1e-12 threshold it silently returned garbage. The
// standardized GCV fit must recover the curve to near machine precision.
func TestFitDegree3LargeSizesConditioning(t *testing.T) {
	truth, xs, ys := conditioningCase()
	var ymean float64
	for _, y := range ys {
		ymean += y
	}
	ymean /= float64(len(ys))

	if legacy, err := fit(xs, ys, 3); err == nil {
		if rel := RMSE(legacy, xs, ys) / ymean; rel <= 0.01 {
			t.Errorf("raw-basis fit unexpectedly healthy on ill-conditioned system (rel RMSE %g)", rel)
		}
	}

	r, err := FitGCV(SamplesFromSlices(xs, ys), 3)
	if err != nil {
		t.Fatalf("FitGCV: %v", err)
	}
	if rel := RMSE(r.Poly, xs, ys) / ymean; rel > 1e-9 {
		t.Errorf("standardized fit rel RMSE = %g, want ~0", rel)
	}
	for k, want := range truth.Coeffs {
		if got := r.Poly.Coeffs[k]; math.Abs(got-want) > 1e-6*math.Abs(want) {
			t.Errorf("coeff[%d] = %g, want %g", k, got, want)
		}
	}
}

// The pivot threshold is relative to the column norm, so rank deficiency is
// detected at any scale — duplicate sizes near 1e6 used to slip past the
// absolute 1e-12 check as cancellation noise.
func TestSolvePivotRelativeToScale(t *testing.T) {
	if _, err := fit([]float64{1e6, 1e6, 2e6}, []float64{1, 2, 3}, 2); !errors.Is(err, ErrBadFit) {
		t.Errorf("duplicate x at scale 1e6: err = %v, want ErrBadFit", err)
	}
	if _, err := fit([]float64{5, 5, 5}, []float64{1, 2, 3}, 1); !errors.Is(err, ErrBadFit) {
		t.Errorf("duplicate x at small scale: err = %v, want ErrBadFit", err)
	}
	// Healthy systems at the same scale still fit.
	xs := []float64{1e4, 3e4, 1e5, 3e5, 1e6}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 1 + 2e-5*x
	}
	p, err := fit(xs, ys, 1)
	if err != nil {
		t.Fatalf("well-conditioned large-scale fit: %v", err)
	}
	if math.Abs(p.Coeffs[1]-2e-5) > 1e-12 {
		t.Errorf("slope = %g, want 2e-5", p.Coeffs[1])
	}
}

func TestFitGCVSmoke(t *testing.T) {
	// Exact data: RSS ≈ 0 at λ=0, so GCV must keep the unpenalized fit.
	_, xs, ys := conditioningCase()
	r, err := FitGCV(SamplesFromSlices(xs, ys), 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Lambda != 0 {
		t.Errorf("exact data chose λ=%g, want 0", r.Lambda)
	}

	// Noisy data: some grid λ is chosen, variance is positive, and the
	// effective degrees of freedom stay within (0, degree+1].
	rng := rand.New(rand.NewSource(11))
	s := NewSamples(60)
	for i := 0; i < 60; i++ {
		x := float64(i + 1)
		s.Add(x, 3+0.4*x+rng.NormFloat64()*2)
	}
	r, err = FitGCV(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	onGrid := false
	for _, lam := range gcvGrid {
		if r.Lambda == lam {
			onGrid = true
		}
	}
	if !onGrid {
		t.Errorf("λ=%g not on the GCV grid", r.Lambda)
	}
	if r.Sigma2 <= 0 {
		t.Errorf("Sigma2 = %g, want > 0 on noisy data", r.Sigma2)
	}
	if r.EffDF <= 0 || r.EffDF > 3+1e-9 {
		t.Errorf("EffDF = %g, want in (0, 3]", r.EffDF)
	}
}

func TestStdErrAndCI(t *testing.T) {
	fit := func(n int, seed int64) FitResult {
		rng := rand.New(rand.NewSource(seed))
		s := NewSamples(n)
		for i := 0; i < n; i++ {
			x := float64(i%100 + 1)
			s.Add(x, 2+3*x+rng.NormFloat64()*4)
		}
		r, err := FitRidge(s, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	small := fit(100, 3)
	big := fit(400, 3)
	if small.StdErr(50) <= 0 {
		t.Fatalf("StdErr = %g, want > 0 on noisy data", small.StdErr(50))
	}
	if big.StdErr(50) >= small.StdErr(50) {
		t.Errorf("more data did not shrink the standard error: n=400 %g vs n=100 %g",
			big.StdErr(50), small.StdErr(50))
	}
	lo, hi := small.EvalCI(50, 1.96)
	if y := small.Poly.Eval(50); !(lo < y && y < hi) {
		t.Errorf("CI [%g, %g] does not bracket the fit %g", lo, hi, y)
	}
	// The 95% band should cover the true mean at most probe points.
	truth := func(x float64) float64 { return 2 + 3*x }
	covered := 0
	for x := 1.0; x <= 100; x++ {
		lo, hi := small.EvalCI(x, 1.96)
		if lo <= truth(x) && truth(x) <= hi {
			covered++
		}
	}
	if covered < 80 {
		t.Errorf("95%% CI covers truth at only %d/100 points", covered)
	}
}

// The closed-form variance polynomial must agree with StdErr² everywhere.
func TestVarPolyMatchesStdErr(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := NewSamples(80)
	for i := 0; i < 80; i++ {
		x := float64(i + 1)
		s.Add(x, 1+0.2*x+0.03*x*x+rng.NormFloat64())
	}
	for _, lam := range []float64{0, 1e-4, 1e-1} {
		r, err := FitRidge(s, 2, lam)
		if err != nil {
			t.Fatal(err)
		}
		vp := r.VarPoly()
		if got, want := vp.Degree(), 4; got != want {
			t.Fatalf("λ=%g: VarPoly degree = %d, want %d", lam, got, want)
		}
		for _, x := range []float64{0.5, 1, 7, 40, 80, 120} {
			se2 := r.StdErr(x) * r.StdErr(x)
			got := vp.Eval(x)
			if math.Abs(got-se2) > 1e-9*math.Max(se2, 1e-30) {
				t.Errorf("λ=%g: VarPoly(%g) = %g, StdErr² = %g", lam, x, got, se2)
			}
		}
	}
}

func TestFitRidgeErrors(t *testing.T) {
	s := SamplesFromSlices([]float64{1, 2, 3}, []float64{1, 2, 3})
	if _, err := FitRidge(s, 1, -0.5); !errors.Is(err, ErrBadFit) {
		t.Error("negative λ accepted")
	}
	if _, err := FitRidge(s, 3, 0); !errors.Is(err, ErrBadFit) {
		t.Error("degree ≥ sample count accepted")
	}
	if _, err := FitRidge(s, -1, 0); !errors.Is(err, ErrBadFit) {
		t.Error("negative degree accepted")
	}
	if _, err := FitRidge(NewSamples(0), 0, 0); !errors.Is(err, ErrBadFit) {
		t.Error("empty samples accepted")
	}
	con := SamplesFromSlices([]float64{4, 4, 4}, []float64{1, 2, 3})
	if _, err := FitRidge(con, 1, 1e-3); !errors.Is(err, ErrBadFit) {
		t.Error("constant x column accepted for degree 1")
	}
	// Degree 0 on constant x is fine — it only needs the mean.
	r, err := FitRidge(con, 0, 0)
	if err != nil {
		t.Fatalf("degree-0 fit: %v", err)
	}
	if math.Abs(r.Poly.Coeffs[0]-2) > 1e-12 {
		t.Errorf("degree-0 mean = %g, want 2", r.Poly.Coeffs[0])
	}
}

func TestSamplesBasics(t *testing.T) {
	s := NewSamples(4)
	if s.Len() != 0 {
		t.Fatalf("new samples Len = %d", s.Len())
	}
	s.Add(1, 10)
	s.Add(2, 20)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched SamplesFromSlices did not panic")
		}
	}()
	SamplesFromSlices([]float64{1}, []float64{1, 2})
}
