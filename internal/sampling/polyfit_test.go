package sampling

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// PolyFit is a polynomial regression model y = Σ Coeffs[k]·x^k, kept
// for the paper's §III-D ablation comparing linear vs higher-order
// utility functions.
type PolyFit struct {
	Coeffs []float64
	R2     float64
}

// Predict evaluates the polynomial at x (Horner).
func (f PolyFit) Predict(x float64) float64 {
	y := 0.0
	for k := len(f.Coeffs) - 1; k >= 0; k-- {
		y = y*x + f.Coeffs[k]
	}
	return y
}

// FitPoly fits a degree-d polynomial by solving the normal equations
// with partial-pivot Gaussian elimination. Needs at least d+1 points.
// X values are rescaled internally for conditioning.
func FitPoly(pts []Point, degree int) (PolyFit, error) {
	if degree < 1 {
		return PolyFit{}, errors.New("sampling: degree must be ≥ 1")
	}
	if len(pts) < degree+1 {
		return PolyFit{}, fmt.Errorf("sampling: degree %d needs ≥ %d points, got %d", degree, degree+1, len(pts))
	}
	// Rescale X to [0, 1] for numerical stability, then undo.
	maxX := 0.0
	for _, p := range pts {
		if math.Abs(p.X) > maxX {
			maxX = math.Abs(p.X)
		}
	}
	if maxX == 0 {
		maxX = 1
	}
	m := degree + 1
	a := make([][]float64, m)
	b := make([]float64, m)
	for i := range a {
		a[i] = make([]float64, m)
	}
	for _, p := range pts {
		x := p.X / maxX
		pow := make([]float64, 2*m-1)
		pow[0] = 1
		for k := 1; k < len(pow); k++ {
			pow[k] = pow[k-1] * x
		}
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				a[i][j] += pow[i+j]
			}
			b[i] += pow[i] * p.Y
		}
	}
	coef, ok := solveDense(a, b)
	if !ok {
		return PolyFit{}, errors.New("sampling: singular normal equations (degenerate sample sizes)")
	}
	// Undo the X rescale: coefficient k divides by maxX^k.
	scale := 1.0
	for k := range coef {
		coef[k] /= scale
		scale *= maxX
	}
	fit := PolyFit{Coeffs: coef}
	var my float64
	for _, p := range pts {
		my += p.Y
	}
	my /= float64(len(pts))
	var ssTot, ssRes float64
	for _, p := range pts {
		ssTot += (p.Y - my) * (p.Y - my)
		r := p.Y - fit.Predict(p.X)
		ssRes += r * r
	}
	fit.R2 = 1.0
	if ssTot > 0 {
		fit.R2 = 1 - ssRes/ssTot
	}
	return fit, nil
}

// solveDense solves a·x = b with partial pivoting; returns ok=false on
// a (near-)singular system. a and b are clobbered.
func solveDense(a [][]float64, b []float64) ([]float64, bool) {
	n := len(b)
	for col := 0; col < n; col++ {
		piv, best := -1, 1e-12
		for r := col; r < n; r++ {
			if v := math.Abs(a[r][col]); v > best {
				best, piv = v, r
			}
		}
		if piv < 0 {
			return nil, false
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		inv := 1 / a[col][col]
		for j := col; j < n; j++ {
			a[col][j] *= inv
		}
		b[col] *= inv
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r][col]
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				a[r][j] -= f * a[col][j]
			}
			b[r] -= f * b[col]
		}
	}
	return b, true
}

// BenchmarkAblationPolyRegression compares linear vs degree-4 utility
// functions on noisy progressive samples (the §III-D argument for
// linear models): it reports each model's extrapolation error at 50×
// the largest sample.
func BenchmarkAblationPolyRegression(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	truth := func(x float64) float64 { return 0.004*x + 2 }
	for i := 0; i < b.N; i++ {
		var pts []Point
		for _, x := range []float64{500, 1000, 2000, 4000, 8000, 20000} {
			pts = append(pts, Point{X: x, Y: truth(x) * (1 + rng.NormFloat64()*0.05)})
		}
		lin, err := FitLinear(pts)
		if err != nil {
			b.Fatal(err)
		}
		pol, err := FitPoly(pts, 4)
		if err != nil {
			b.Fatal(err)
		}
		x := 1e6
		linErr := math.Abs(lin.Predict(x)-truth(x)) / truth(x)
		polErr := math.Abs(pol.Predict(x)-truth(x)) / truth(x)
		b.ReportMetric(100*linErr, "linear-extrap-err-%")
		b.ReportMetric(100*polErr, "poly4-extrap-err-%")
	}
}
