// Package sampling implements the task-specific heterogeneity
// estimator's learning machinery (paper §III-A): progressive sampling
// schedules and least-squares regression of execution time on input
// size.
//
// The framework runs the *actual* analytics algorithm on a ladder of
// small representative samples (0.05%–2% of the data by default) on
// every node, records (sample size, execution time) pairs, and fits a
// per-node linear model f_i(x) = m_i·x + c_i. The paper argues (§III-D)
// that higher-order polynomial fits are statistically unaffordable at
// these sample counts; polyfit_test.go keeps a polynomial fit to
// reproduce that ablation, and nothing else runs it.
package sampling

import (
	"errors"
	"fmt"
	"math"
)

// The ladder's constants: samples from 0.05% to 2% of the input (the
// paper's bounds) in DefaultSteps geometric steps, and never fewer
// than DefaultMinRecords records.
const (
	DefaultMinFrac    = 0.0005
	DefaultMaxFrac    = 0.02
	DefaultSteps      = 6
	DefaultMinRecords = 64
)

// ScheduleWithFloor returns the strictly increasing ladder of sample
// sizes for a dataset of n records: DefaultSteps geometric steps from
// DefaultMinFrac·n to DefaultMaxFrac·n, with an absolute lower bound
// on sample sizes. The paper's 0.05%–2% fractions assume datasets large
// enough that even the smallest sample is statistically meaningful; on
// scaled-down corpora a fractional sample of a handful of records puts
// support-scaled mining into a degenerate regime (local minsup ≈ 1)
// whose cost says nothing about full-partition behaviour. The
// DefaultMinRecords floor keeps every profiling run out of that
// regime; the ceiling is raised to at least 4× the floor so the ladder
// still spans a fittable range. Every size is at most n; a corpus too
// small for that gets the two-point ladder {⌈n/2⌉, n}.
func ScheduleWithFloor(n int) ([]int, error) {
	if n <= 0 {
		return nil, errors.New("sampling: schedule needs n ≥ 1")
	}
	lo := int(math.Round(DefaultMinFrac * float64(n)))
	if lo < DefaultMinRecords {
		lo = DefaultMinRecords
	}
	hi := int(math.Round(DefaultMaxFrac * float64(n)))
	if hi < 4*DefaultMinRecords {
		hi = 4 * DefaultMinRecords
	}
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	if hi <= lo {
		// Tiny corpus: fall back to a two-point ladder.
		if n >= 2 {
			return []int{(n + 1) / 2, n}, nil
		}
		return nil, fmt.Errorf("sampling: dataset of %d records cannot support a schedule", n)
	}
	ratio := math.Pow(float64(hi)/float64(lo), 1/float64(DefaultSteps-1))
	sizes := make([]int, 0, DefaultSteps)
	f := float64(lo)
	for i := 0; i < DefaultSteps; i++ {
		s := int(math.Round(f))
		if s > n {
			s = n
		}
		if len(sizes) == 0 || s > sizes[len(sizes)-1] {
			sizes = append(sizes, s)
		}
		f *= ratio
	}
	if len(sizes) < 2 {
		return []int{lo, hi}, nil
	}
	return sizes, nil
}

// Point is one profiling observation: the algorithm ran over X data
// units in Y seconds.
type Point struct {
	X float64
	Y float64
}

// LinearFit is the learned per-node utility function for time:
// f(x) = Slope·x + Intercept.
type LinearFit struct {
	Slope     float64
	Intercept float64
	// R2 is the coefficient of determination of the fit.
	R2 float64
}

// Predict evaluates the model at x.
func (f LinearFit) Predict(x float64) float64 { return f.Slope*x + f.Intercept }

// ClampNonNegative returns a copy with a nonnegative intercept:
// execution time extrapolated to zero input cannot be negative, and
// the Pareto LP requires c_i ≥ 0 for v ≥ 0 to hold.
func (f LinearFit) ClampNonNegative() LinearFit {
	if f.Intercept < 0 {
		f.Intercept = 0
	}
	if f.Slope < 0 {
		f.Slope = 0
	}
	return f
}

// FitLinear computes the ordinary-least-squares line through the
// points. At least two points with distinct X are required.
func FitLinear(pts []Point) (LinearFit, error) {
	if len(pts) < 2 {
		return LinearFit{}, fmt.Errorf("sampling: need ≥ 2 points, got %d", len(pts))
	}
	var sx, sy float64
	for _, p := range pts {
		sx += p.X
		sy += p.Y
	}
	n := float64(len(pts))
	mx, my := sx/n, sy/n
	var sxx, sxy float64
	for _, p := range pts {
		dx := p.X - mx
		sxx += dx * dx
		sxy += dx * (p.Y - my)
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("sampling: all sample sizes identical; cannot fit")
	}
	slope := sxy / sxx
	intercept := my - slope*mx
	// R².
	var ssTot, ssRes float64
	for _, p := range pts {
		ssTot += (p.Y - my) * (p.Y - my)
		r := p.Y - (slope*p.X + intercept)
		ssRes += r * r
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return LinearFit{Slope: slope, Intercept: intercept, R2: r2}, nil
}

// ProfileNode fits one node's utility function to its progressive
// samples (sample size, seconds), clamped nonnegative as the Pareto
// modeler requires.
func ProfileNode(pts []Point) (LinearFit, error) {
	fit, err := FitLinear(pts)
	if err != nil {
		return LinearFit{}, err
	}
	return fit.ClampNonNegative(), nil
}
