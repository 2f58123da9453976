// Package perfmodel implements the computational half of §3.2 of the
// paper: architecture-independent component performance models built from
// profiles of small-size runs. Floating-point operation counts, collected
// (here, synthesized by the application cost models standing in for
// hardware counters) on several small problem sizes, are fitted with
// least-squares polynomials. The fitted curve converts to a per-node time
// estimate at the node's sustained flop rate, which is what the workflow
// scheduler's rank function consumes.
//
// The paper's second ingredient, memory-reuse-distance histograms that
// predict cache misses, is not modeled: time estimates are compute-only.
package perfmodel

import (
	"errors"
	"math"
)

// Poly is a polynomial given by its coefficients in ascending order:
// Poly{a, b, c} is a + b*x + c*x².
type Poly []float64

// Eval evaluates the polynomial at x (Horner's method).
func (p Poly) Eval(x float64) float64 {
	v := 0.0
	for i := len(p) - 1; i >= 0; i-- {
		v = v*x + p[i]
	}
	return v
}

// ErrBadFit reports an unsolvable least-squares system (too few points or a
// singular normal matrix).
var ErrBadFit = errors.New("perfmodel: least-squares system unsolvable")

// Polyfit fits a degree-d polynomial to (xs, ys) by least squares via the
// normal equations. It requires len(xs) == len(ys) >= d+1.
func Polyfit(xs, ys []float64, degree int) (Poly, error) {
	if degree < 0 || len(xs) != len(ys) || len(xs) < degree+1 {
		return nil, ErrBadFit
	}
	m := degree + 1
	// Normal equations: (VᵀV) c = Vᵀy with V the Vandermonde matrix.
	a := make([][]float64, m)
	b := make([]float64, m)
	for i := range a {
		a[i] = make([]float64, m)
	}
	for k, x := range xs {
		// powers[j] = x^j
		pw := 1.0
		powers := make([]float64, m)
		for j := 0; j < m; j++ {
			powers[j] = pw
			pw *= x
		}
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				a[i][j] += powers[i] * powers[j]
			}
			b[i] += powers[i] * ys[k]
		}
	}
	c, err := solve(a, b)
	if err != nil {
		return nil, err
	}
	return Poly(c), nil
}

// solve performs Gaussian elimination with partial pivoting on a copy-free
// basis (a and b are consumed).
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return nil, ErrBadFit
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= a[r][c] * x[c]
		}
		x[r] = sum / a[r][r]
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, ErrBadFit
		}
	}
	return x, nil
}

// Residual returns the root-mean-square error of the polynomial over the
// given points.
func (p Poly) Residual(xs, ys []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for i, x := range xs {
		d := p.Eval(x) - ys[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)))
}
