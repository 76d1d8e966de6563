// Package polyfit implements least-squares polynomial fitting, the math the
// paper uses to turn benchmark samples into performance models:
//
//	cost_op(s) = Σ_{k=0..d} a_k · s^k
//
// FitRidge is the one fitting entry point: least squares on a standardized
// design with an optional ridge penalty λ. At λ = 0 it keeps the raw-basis
// solution — the normal equations of the Vandermonde system solved by
// Gaussian elimination with partial pivoting — whenever that solution is
// numerically sound. The paper uses degree three; any degree smaller than
// the sample count works.
package polyfit

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Poly is a polynomial with coefficients in ascending-power order:
// Coeffs[k] multiplies x^k.
type Poly struct {
	Coeffs []float64
}

// Eval returns the polynomial's value at x (Horner's method).
func (p Poly) Eval(x float64) float64 {
	var y float64
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		y = y*x + p.Coeffs[i]
	}
	return y
}

// Degree returns the polynomial's degree (len(Coeffs)-1), or -1 if empty.
func (p Poly) Degree() int { return len(p.Coeffs) - 1 }

// String renders the polynomial in human-readable form, e.g.
// "3.2 + 1.5·x + 0.01·x^2".
func (p Poly) String() string {
	if len(p.Coeffs) == 0 {
		return "0"
	}
	var b strings.Builder
	for k, c := range p.Coeffs {
		if k > 0 {
			b.WriteString(" + ")
		}
		switch k {
		case 0:
			fmt.Fprintf(&b, "%.6g", c)
		case 1:
			fmt.Fprintf(&b, "%.6g*x", c)
		default:
			fmt.Fprintf(&b, "%.6g*x^%d", c, k)
		}
	}
	return b.String()
}

// ErrBadFit is returned when the sample set cannot determine the requested
// polynomial (too few points, mismatched slices, or a singular system).
var ErrBadFit = errors.New("polyfit: insufficient or degenerate samples")

// fit computes the least-squares polynomial of the given degree through the
// samples (xs[i], ys[i]) in the raw basis: FitRidge's λ = 0 path. It
// requires len(xs) == len(ys) > degree.
func fit(xs, ys []float64, degree int) (Poly, error) {
	if degree < 0 || len(xs) != len(ys) || len(xs) <= degree {
		return Poly{}, ErrBadFit
	}
	n := degree + 1
	// Normal equations: (VᵀV) a = Vᵀy with V the Vandermonde matrix.
	// VᵀV[i][j] = Σ x^(i+j); Vᵀy[i] = Σ y·x^i.
	pow := make([]float64, 2*degree+1)
	for _, x := range xs {
		xp := 1.0
		for k := 0; k <= 2*degree; k++ {
			pow[k] += xp
			xp *= x
		}
	}
	rhs := make([]float64, n)
	for i, x := range xs {
		xp := 1.0
		for k := 0; k < n; k++ {
			rhs[k] += ys[i] * xp
			xp *= x
		}
	}
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n+1)
		for j := 0; j < n; j++ {
			a[i][j] = pow[i+j]
		}
		a[i][n] = rhs[i]
	}
	coeffs, err := solve(a)
	if err != nil {
		return Poly{}, err
	}
	return Poly{Coeffs: coeffs}, nil
}

// pivotRelTol is the relative pivot threshold of solve: a pivot smaller than
// pivotRelTol times its column's original norm is treated as zero. The
// historical threshold was the absolute constant 1e-12, which is meaningless
// once the matrix entries are power sums of large sizes — a degree-3 normal
// matrix over sizes ≥ 1e5 holds entries up to ~1e36, so a numerically dead
// pivot (pure cancellation noise at ~1e20) still sailed past the absolute
// check and the elimination "succeeded" with garbage coefficients.
const pivotRelTol = 1e-12

// solve performs Gaussian elimination with partial pivoting on the n×(n+1)
// augmented matrix a, returning the solution vector. Pivot degeneracy is
// judged relative to each column's norm in the original matrix, so detection
// is invariant under uniform scaling of the system.
func solve(a [][]float64) ([]float64, error) {
	n := len(a)
	// Column norms of the matrix as handed in (the coefficient part only),
	// before elimination rewrites it.
	colNorm := make([]float64, n)
	for c := 0; c < n; c++ {
		for r := 0; r < n; r++ {
			if v := math.Abs(a[r][c]); v > colNorm[c] {
				colNorm[c] = v
			}
		}
	}
	for col := 0; col < n; col++ {
		// Partial pivot: the row with the largest magnitude in col.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < pivotRelTol*colNorm[col] {
			return nil, ErrBadFit
		}
		a[col], a[pivot] = a[pivot], a[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c <= n; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := a[i][n]
		for j := i + 1; j < n; j++ {
			sum -= a[i][j] * x[j]
		}
		x[i] = sum / a[i][i]
	}
	return x, nil
}

// Residuals returns ys[i] - p.Eval(xs[i]) for each sample.
func Residuals(p Poly, xs, ys []float64) []float64 {
	res := make([]float64, len(xs))
	for i := range xs {
		res[i] = ys[i] - p.Eval(xs[i])
	}
	return res
}

// RMSE returns the root-mean-square error of the fit over the samples.
func RMSE(p Poly, xs, ys []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, r := range Residuals(p, xs, ys) {
		sum += r * r
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// Scale returns the polynomial f·p.
func Scale(p Poly, f float64) Poly {
	out := Poly{Coeffs: make([]float64, len(p.Coeffs))}
	for i, c := range p.Coeffs {
		out.Coeffs[i] = f * c
	}
	return out
}

// Add returns the polynomial p + q.
func Add(p, q Poly) Poly {
	n := len(p.Coeffs)
	if len(q.Coeffs) > n {
		n = len(q.Coeffs)
	}
	out := Poly{Coeffs: make([]float64, n)}
	for i := range out.Coeffs {
		if i < len(p.Coeffs) {
			out.Coeffs[i] += p.Coeffs[i]
		}
		if i < len(q.Coeffs) {
			out.Coeffs[i] += q.Coeffs[i]
		}
	}
	return out
}
