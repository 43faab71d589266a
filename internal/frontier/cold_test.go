package frontier

import (
	"errors"
	"fmt"
	"sort"

	"pareto/internal/opt"
)

// The cold frontier enumerators: one independent two-phase opt.Optimize
// per α, no retained basis. coldFrontier is the reference Sweep is held
// to bit for bit; coldExactFrontier finds the vertices by blind α
// bisection, a second algorithm the dichotomic Exact must agree with.
// The equivalence tests, the contract tests and
// BenchmarkFrontier/cold64x41 use them. A cold point fills
// only a Point's 2-D fields (Alpha, Makespan, DirtyEnergy, Plan); compare
// warm points through twoD.

// coldDedupTol is the relative tolerance coldFrontier uses when
// deduplicating adjacent sample points. Plan metrics are recomputed
// from integer sizes, so identical plans compare bitwise equal and the
// tolerance only needs to absorb nothing — it exists for symmetry with
// coldExactFrontier's tol parameter.
const coldDedupTol = 1e-9

func coldPoint(nodes []opt.NodeModel, total int, alpha float64) (Point, error) {
	plan, err := opt.Optimize(nodes, total, alpha, opt.Constraints{})
	if err != nil {
		return Point{}, err
	}
	return Point{Alpha: alpha, Makespan: plan.Makespan, DirtyEnergy: plan.DirtyEnergy, Plan: plan}, nil
}

// twoD strips a point down to the fields a cold point fills.
func twoD(p Point) Point {
	return Point{Alpha: p.Alpha, Makespan: p.Makespan, DirtyEnergy: p.DirtyEnergy, Plan: p.Plan}
}

// coldCanonicalize sorts a copy of pts by ascending α and drops
// adjacent points that coincide in objective space up to tol
// (SamePoint), keeping the lowest-α representative.
func coldCanonicalize(pts []Point, tol float64) []Point {
	out := make([]Point, len(pts))
	copy(out, pts)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Alpha < out[j].Alpha })
	dedup := out[:0]
	for _, p := range out {
		if len(dedup) == 0 || !SamePoint(dedup[len(dedup)-1], p, tol) {
			dedup = append(dedup, p)
		}
	}
	return dedup
}

// coldFrontier sweeps the scalarization weight over the given α values
// and returns the sampled Pareto points in canonical form: ascending α
// with adjacent duplicates (same makespan and dirty energy within 1e-9
// relative) collapsed to their lowest-α representative, regardless of
// the order alphas are given in.
func coldFrontier(nodes []opt.NodeModel, total int, alphas []float64) ([]Point, error) {
	if len(alphas) == 0 {
		return nil, errors.New("empty alpha sweep")
	}
	pts := make([]Point, 0, len(alphas))
	for _, a := range alphas {
		pt, err := coldPoint(nodes, total, a)
		if err != nil {
			return nil, fmt.Errorf("frontier at alpha %v: %w", a, err)
		}
		pts = append(pts, pt)
	}
	return coldCanonicalize(pts, coldDedupTol), nil
}

// bisectMaxDepth bounds coldExactFrontier's recursion. With the 1e-9
// α-width convergence floor a bisection from [0,1] bottoms out near
// depth 30, so 40 is a pure safety net — but if it ever fires with
// differing endpoints the reference is incomplete, and that is
// surfaced as errColdTruncated.
const bisectMaxDepth = 40

// errColdTruncated reports that coldExactFrontier hit bisectMaxDepth.
var errColdTruncated = errors.New("cold bisection truncated at depth limit")

// coldExactFrontier enumerates the Pareto frontier's vertex points
// exactly (up to tol in objective space, default 1e-6) by recursive α
// bisection: the scalarized LP is piecewise constant in its optimal
// vertex as α varies, so whenever the solutions at two α values differ,
// some breakpoint lies between them.
//
// The result is canonical: ascending α, adjacent duplicates collapsed.
// An interval narrower than 1e-9 in α whose endpoints still differ is
// converged, not truncated — both endpoint vertices are already in the
// output and bisection always drives adjacent-vertex intervals to that
// floor. If the recursion instead exhausts its depth budget with
// differing endpoints, the points found so far are returned together
// with an error wrapping errColdTruncated.
func coldExactFrontier(nodes []opt.NodeModel, total int, tol float64) ([]Point, error) {
	if tol <= 0 {
		tol = 1e-6
	}
	solve := func(alpha float64) (Point, error) { return coldPoint(nodes, total, alpha) }
	lo, err := solve(0)
	if err != nil {
		return nil, err
	}
	hi, err := solve(1)
	if err != nil {
		return nil, err
	}
	var out []Point
	truncated := false
	var rec func(a, b Point, depth int) error
	rec = func(a, b Point, depth int) error {
		if SamePoint(a, b, tol) || b.Alpha-a.Alpha < 1e-9 {
			return nil
		}
		if depth > bisectMaxDepth {
			truncated = true
			return nil
		}
		mid, err := solve((a.Alpha + b.Alpha) / 2)
		if err != nil {
			return err
		}
		if err := rec(a, mid, depth+1); err != nil {
			return err
		}
		if !SamePoint(mid, a, tol) && !SamePoint(mid, b, tol) {
			out = append(out, mid)
		}
		return rec(mid, b, depth+1)
	}
	out = append(out, lo)
	if err := rec(lo, hi, 0); err != nil {
		return nil, err
	}
	if !SamePoint(lo, hi, tol) {
		out = append(out, hi)
	}
	pts := coldCanonicalize(out, tol)
	if truncated {
		return pts, fmt.Errorf("exact frontier incomplete beyond depth %d: %w", bisectMaxDepth, errColdTruncated)
	}
	return pts, nil
}
