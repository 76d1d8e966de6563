package polyfit

import "math"

// This file adds the statistically rigorous side of the fitting layer: ridge
// regression on a standardized design matrix, generalized cross-validation
// for the regularization strength, and per-prediction standard errors derived
// from the residual variance and the covariance of the fitted coefficients.
//
// fit solves the raw-basis normal equations, which are numerically fragile:
// the Vandermonde moment matrix over sizes ≥ 1e5 at degree 3 spans ~36 orders
// of magnitude. FitRidge instead centers and scales each power column to unit
// variance, so the Gram matrix has a unit diagonal regardless of the size
// range, and adds an optional ridge penalty λ that shrinks the standardized
// slopes toward zero. At λ = 0 on well-conditioned inputs the result is
// delegated to fit so existing coefficients are reproduced bit-for-bit.

// Samples accumulates (x, y) observations in column-wise float64 storage.
// Columns keep the fitting pipeline allocation-friendly: callers append
// incrementally and the fitter reads each coordinate as a contiguous slice.
type Samples struct {
	xs, ys []float64
}

// NewSamples returns an empty sample set with room for n observations.
func NewSamples(n int) *Samples {
	return &Samples{xs: make([]float64, 0, n), ys: make([]float64, 0, n)}
}

// SamplesFromSlices copies the paired slices into a new sample set.
// It panics if the lengths differ.
func SamplesFromSlices(xs, ys []float64) *Samples {
	if len(xs) != len(ys) {
		panic("polyfit: mismatched sample slices")
	}
	s := NewSamples(len(xs))
	s.xs = append(s.xs, xs...)
	s.ys = append(s.ys, ys...)
	return s
}

// Add appends one observation.
func (s *Samples) Add(x, y float64) {
	s.xs = append(s.xs, x)
	s.ys = append(s.ys, y)
}

// Len returns the number of observations.
func (s *Samples) Len() int { return len(s.xs) }

// FitResult carries a fitted polynomial together with the statistics needed
// to turn any prediction into a confidence interval.
type FitResult struct {
	// Poly is the fitted polynomial in the raw basis (same as fit's output).
	Poly Poly
	// Lambda is the ridge strength used (0 means plain least squares).
	Lambda float64
	// Sigma2 is the residual variance estimate RSS/(n − EffDF), or 0 when
	// the fit leaves no degrees of freedom for error.
	Sigma2 float64
	// EffDF is the effective number of parameters: intercept plus the trace
	// of the ridge hat matrix. It equals degree+1 at λ = 0 and shrinks as
	// λ grows.
	EffDF float64
	// RSS is the residual sum of squares of Poly over the samples.
	RSS float64

	n     int
	mean  []float64   // mean of x^j, j = 1..degree
	scale []float64   // population std of x^j, j = 1..degree
	cov   [][]float64 // covariance of the standardized slope estimates
}

// StdErr returns the standard error of the mean prediction Poly.Eval(x):
// sqrt(σ²/n + zᵀ Cov z) where z is the standardized power vector at x.
func (r FitResult) StdErr(x float64) float64 {
	if r.n == 0 {
		return 0
	}
	v := r.Sigma2 / float64(r.n)
	d := len(r.mean)
	if d > 0 && len(r.cov) == d {
		z := make([]float64, d)
		xp := 1.0
		for j := 0; j < d; j++ {
			xp *= x
			z[j] = (xp - r.mean[j]) / r.scale[j]
		}
		for j := 0; j < d; j++ {
			for k := 0; k < d; k++ {
				v += z[j] * r.cov[j][k] * z[k]
			}
		}
	}
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// EvalCI returns the confidence interval Poly.Eval(x) ± z·StdErr(x) for a
// normal-quantile multiplier z (e.g. 1.96 for 95%).
func (r FitResult) EvalCI(x, z float64) (lo, hi float64) {
	y := r.Poly.Eval(x)
	m := z * r.StdErr(x)
	return y - m, y + m
}

// VarPoly returns the prediction variance StdErr(x)² as an exact polynomial
// of degree 2·degree in x. The quadratic form zᵀ Cov z expands term by term:
// each Cov[j][k]/(s_j·s_k) contributes to x^(j+k), x^j, x^k and the constant.
// Storing the variance this way lets downstream model curves evaluate
// uncertainty with the same Horner machinery they use for the cost itself.
func (r FitResult) VarPoly() Poly {
	d := len(r.mean)
	coeffs := make([]float64, 2*d+1)
	if r.n > 0 {
		coeffs[0] = r.Sigma2 / float64(r.n)
	}
	for j := 0; j < d; j++ {
		for k := 0; k < d; k++ {
			c := r.cov[j][k] / (r.scale[j] * r.scale[k])
			coeffs[(j+1)+(k+1)] += c
			coeffs[k+1] -= c * r.mean[j]
			coeffs[j+1] -= c * r.mean[k]
			coeffs[0] += c * r.mean[j] * r.mean[k]
		}
	}
	return Poly{Coeffs: coeffs}
}

// FitRidge fits a degree-d polynomial with ridge strength lambda ≥ 0 on the
// standardized design. Each power column x^j is centered and scaled to unit
// population variance, the intercept is recovered from the means, and the
// penalty λ·n·I is added to the standardized Gram matrix (whose diagonal is
// exactly n), so λ is a dimensionless fraction of each column's own energy.
//
// At lambda == 0 the raw-basis fit is computed as well and its coefficients
// are kept whenever they explain the data at least as well as the
// standardized solution — on well-conditioned inputs the two agree and the
// legacy coefficients are returned bit-for-bit; on ill-conditioned inputs
// (where fit's elimination loses all precision) the standardized solution
// wins on RMSE and is used instead.
func FitRidge(s *Samples, degree int, lambda float64) (FitResult, error) {
	xs, ys := s.xs, s.ys
	n := len(xs)
	if degree < 0 || lambda < 0 || math.IsNaN(lambda) || n <= degree || len(ys) != n {
		return FitResult{}, ErrBadFit
	}
	nf := float64(n)
	var ymean float64
	for _, y := range ys {
		ymean += y
	}
	ymean /= nf

	if degree == 0 {
		var rss float64
		for _, y := range ys {
			r := y - ymean
			rss += r * r
		}
		var sigma2 float64
		if n > 1 {
			sigma2 = rss / (nf - 1)
		}
		return FitResult{
			Poly: Poly{Coeffs: []float64{ymean}}, Lambda: lambda,
			Sigma2: sigma2, EffDF: 1, RSS: rss, n: n,
		}, nil
	}

	d := degree
	// Power columns cols[j][i] = xs[i]^(j+1), their means and population
	// standard deviations.
	cols := make([][]float64, d)
	mean := make([]float64, d)
	scale := make([]float64, d)
	for j := 0; j < d; j++ {
		cols[j] = make([]float64, n)
	}
	for i, x := range xs {
		xp := 1.0
		for j := 0; j < d; j++ {
			xp *= x
			cols[j][i] = xp
			mean[j] += xp
		}
	}
	for j := 0; j < d; j++ {
		mean[j] /= nf
		var ss float64
		for i := 0; i < n; i++ {
			dev := cols[j][i] - mean[j]
			ss += dev * dev
		}
		scale[j] = math.Sqrt(ss / nf)
		if scale[j] == 0 || math.IsNaN(scale[j]) || math.IsInf(scale[j], 0) {
			return FitResult{}, ErrBadFit
		}
	}
	// Standardized Gram matrix M = ZᵀZ (diagonal exactly n) and RHS Zᵀ(y−ȳ).
	m := make([][]float64, d)
	rhs := make([]float64, d)
	for j := 0; j < d; j++ {
		m[j] = make([]float64, d)
	}
	for i := 0; i < n; i++ {
		yc := ys[i] - ymean
		for j := 0; j < d; j++ {
			zj := (cols[j][i] - mean[j]) / scale[j]
			rhs[j] += zj * yc
			for k := j; k < d; k++ {
				m[j][k] += zj * (cols[k][i] - mean[k]) / scale[k]
			}
		}
	}
	for j := 0; j < d; j++ {
		for k := 0; k < j; k++ {
			m[j][k] = m[k][j]
		}
	}
	// A = M + λ·n·I, solved for the standardized slopes.
	aug := make([][]float64, d)
	a := make([][]float64, d)
	for j := 0; j < d; j++ {
		a[j] = make([]float64, d)
		copy(a[j], m[j])
		a[j][j] += lambda * nf
		aug[j] = make([]float64, d+1)
		copy(aug[j], a[j])
		aug[j][d] = rhs[j]
	}
	b, err := solve(aug)
	if err != nil {
		return FitResult{}, err
	}
	// Back to the raw basis: coeff on x^j is b_j/s_j, intercept from means.
	stdPoly := Poly{Coeffs: make([]float64, d+1)}
	intercept := ymean
	for j := 0; j < d; j++ {
		stdPoly.Coeffs[j+1] = b[j] / scale[j]
		intercept -= b[j] * mean[j] / scale[j]
	}
	stdPoly.Coeffs[0] = intercept

	poly := stdPoly
	if lambda == 0 {
		if legacy, lerr := fit(xs, ys, degree); lerr == nil {
			var yabs float64
			for _, y := range ys {
				if v := math.Abs(y); v > yabs {
					yabs = v
				}
			}
			// Tolerance relative to the data scale: the two solvers agree to
			// roundoff when the raw-basis elimination is healthy, and the
			// raw-basis answer only loses by a margin far above this when its
			// elimination has cancelled away the signal.
			tol := 1e-9 * (yabs + 1)
			if RMSE(legacy, xs, ys) <= RMSE(stdPoly, xs, ys)*(1+1e-6)+tol {
				poly = legacy
			}
		}
	}

	var rss float64
	for i, x := range xs {
		r := ys[i] - poly.Eval(x)
		rss += r * r
	}
	ainv, err := inverse(a)
	if err != nil {
		return FitResult{}, err
	}
	// Effective degrees of freedom: 1 (intercept) + tr(A⁻¹M).
	edf := 1.0
	am := make([][]float64, d) // A⁻¹M
	for j := 0; j < d; j++ {
		am[j] = make([]float64, d)
		for k := 0; k < d; k++ {
			var sum float64
			for l := 0; l < d; l++ {
				sum += ainv[j][l] * m[l][k]
			}
			am[j][k] = sum
		}
		edf += am[j][j]
	}
	var sigma2 float64
	if nf-edf > 0 {
		sigma2 = rss / (nf - edf)
	}
	// Sandwich covariance of the standardized slopes: σ²·A⁻¹MA⁻¹.
	cov := make([][]float64, d)
	for j := 0; j < d; j++ {
		cov[j] = make([]float64, d)
		for k := 0; k < d; k++ {
			var sum float64
			for l := 0; l < d; l++ {
				sum += am[j][l] * ainv[l][k]
			}
			cov[j][k] = sigma2 * sum
		}
	}
	return FitResult{
		Poly: poly, Lambda: lambda, Sigma2: sigma2, EffDF: edf, RSS: rss,
		n: n, mean: mean, scale: scale, cov: cov,
	}, nil
}

// gcvGrid is the λ grid searched by FitGCV. Zero comes first so exact or
// near-exact data keeps the unpenalized fit; ties break toward smaller λ.
var gcvGrid = []float64{0, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// FitGCV fits at each grid λ and keeps the one minimizing the generalized
// cross-validation score GCV(λ) = n·RSS(λ)/(n − edf(λ))², a rotation-
// invariant approximation of leave-one-out error that needs no refitting.
func FitGCV(s *Samples, degree int) (FitResult, error) {
	var best FitResult
	bestScore := math.Inf(1)
	found := false
	for _, lam := range gcvGrid {
		r, err := FitRidge(s, degree, lam)
		if err != nil {
			continue
		}
		nf := float64(r.n)
		den := nf - r.EffDF
		score := math.Inf(1)
		if den > 0 {
			score = nf * r.RSS / (den * den)
		}
		if !found || score < bestScore {
			best, bestScore, found = r, score, true
		}
	}
	if !found {
		return FitResult{}, ErrBadFit
	}
	return best, nil
}

// inverse returns the inverse of the square matrix m via Gauss–Jordan
// elimination with partial pivoting and the same column-relative degeneracy
// test as solve.
func inverse(m [][]float64) ([][]float64, error) {
	d := len(m)
	a := make([][]float64, d)
	colNorm := make([]float64, d)
	for i := 0; i < d; i++ {
		a[i] = make([]float64, 2*d)
		copy(a[i], m[i])
		a[i][d+i] = 1
		for j := 0; j < d; j++ {
			if v := math.Abs(m[i][j]); v > colNorm[j] {
				colNorm[j] = v
			}
		}
	}
	for col := 0; col < d; col++ {
		pivot := col
		for r := col + 1; r < d; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < pivotRelTol*colNorm[col] {
			return nil, ErrBadFit
		}
		a[col], a[pivot] = a[pivot], a[col]
		p := a[col][col]
		for c := 0; c < 2*d; c++ {
			a[col][c] /= p
		}
		for r := 0; r < d; r++ {
			if r == col {
				continue
			}
			f := a[r][col]
			if f == 0 {
				continue
			}
			for c := 0; c < 2*d; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	out := make([][]float64, d)
	for i := 0; i < d; i++ {
		out[i] = a[i][d:]
	}
	return out, nil
}
