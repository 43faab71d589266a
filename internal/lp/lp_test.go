package lp

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

func mustProblem(t *testing.T, obj []float64) *Problem {
	t.Helper()
	p, err := NewProblem(obj)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func addCon(t *testing.T, p *Problem, coeffs []float64, op Op, rhs float64) {
	t.Helper()
	if err := p.AddConstraint(coeffs, op, rhs); err != nil {
		t.Fatal(err)
	}
}

func solve(t *testing.T, p *Problem) *Solution {
	t.Helper()
	s, err := p.NewSolver().Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return s
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewProblemValidation(t *testing.T) {
	if _, err := NewProblem(nil); err == nil {
		t.Error("empty objective accepted")
	}
	p := mustProblem(t, []float64{1})
	if err := p.AddConstraint([]float64{1, 2}, LE, 1); err == nil {
		t.Error("wrong-width constraint accepted")
	}
	if err := p.AddConstraint([]float64{1}, Op(9), 1); err == nil {
		t.Error("bad op accepted")
	}
}

func TestTextbookMaximization(t *testing.T) {
	// max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18  (Dantzig's classic)
	// optimum x=2, y=6, value 36. As minimization of the negation.
	p := mustProblem(t, []float64{-3, -5})
	addCon(t, p, []float64{1, 0}, LE, 4)
	addCon(t, p, []float64{0, 2}, LE, 12)
	addCon(t, p, []float64{3, 2}, LE, 18)
	s := solve(t, p)
	if !approx(s.X[0], 2, 1e-6) || !approx(s.X[1], 6, 1e-6) || !approx(s.Objective, -36, 1e-6) {
		t.Errorf("got x=%v obj=%v, want [2 6] -36", s.X, s.Objective)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x + 2y s.t. x + y = 10, x ≤ 4 → x=4, y=6, obj=16.
	p := mustProblem(t, []float64{1, 2})
	addCon(t, p, []float64{1, 1}, EQ, 10)
	addCon(t, p, []float64{1, 0}, LE, 4)
	s := solve(t, p)
	if !approx(s.X[0], 4, 1e-6) || !approx(s.X[1], 6, 1e-6) || !approx(s.Objective, 16, 1e-6) {
		t.Errorf("got x=%v obj=%v, want [4 6] 16", s.X, s.Objective)
	}
}

func TestGEConstraints(t *testing.T) {
	// min 2x + 3y s.t. x + y ≥ 5, x ≥ 1, y ≥ 1 → x=4, y=1, obj=11.
	p := mustProblem(t, []float64{2, 3})
	addCon(t, p, []float64{1, 1}, GE, 5)
	addCon(t, p, []float64{1, 0}, GE, 1)
	addCon(t, p, []float64{0, 1}, GE, 1)
	s := solve(t, p)
	if !approx(s.Objective, 11, 1e-6) {
		t.Errorf("obj = %v, want 11 (x=%v)", s.Objective, s.X)
	}
}

func TestInfeasible(t *testing.T) {
	p := mustProblem(t, []float64{1})
	addCon(t, p, []float64{1}, GE, 5)
	addCon(t, p, []float64{1}, LE, 3)
	if _, err := p.NewSolver().Solve(); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestInfeasibleEquality(t *testing.T) {
	p := mustProblem(t, []float64{1, 1})
	addCon(t, p, []float64{1, 1}, EQ, 4)
	addCon(t, p, []float64{1, 1}, EQ, 7)
	if _, err := p.NewSolver().Solve(); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestUnbounded(t *testing.T) {
	// min −x with only x ≥ 0: unbounded below.
	p := mustProblem(t, []float64{-1})
	addCon(t, p, []float64{1}, GE, 0)
	if _, err := p.NewSolver().Solve(); !errors.Is(err, ErrUnbounded) {
		t.Errorf("err = %v, want ErrUnbounded", err)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// min x s.t. −x ≤ −5  ⇔  x ≥ 5.
	p := mustProblem(t, []float64{1})
	addCon(t, p, []float64{-1}, LE, -5)
	s := solve(t, p)
	if !approx(s.X[0], 5, 1e-6) {
		t.Errorf("x = %v, want 5", s.X[0])
	}
}

func TestFreeVariable(t *testing.T) {
	// min y s.t. y ≥ x − 4, y ≥ −x, x ≤ 10 with x, y unrestricted in
	// sign is the classic V: optimum at x=2, y=−2. Every Problem
	// variable is nonnegative, so a caller that needs a free one splits
	// it itself: x = x⁺ − x⁻, y = y⁺ − y⁻ over columns (x⁺, x⁻, y⁺, y⁻).
	p := mustProblem(t, []float64{0, 0, 1, -1})
	addCon(t, p, []float64{-1, 1, 1, -1}, GE, -4) // y − x ≥ −4
	addCon(t, p, []float64{1, -1, 1, -1}, GE, 0)  // y + x ≥ 0
	addCon(t, p, []float64{1, -1, 0, 0}, LE, 10)
	s := solve(t, p)
	x, y := s.X[0]-s.X[1], s.X[2]-s.X[3]
	if !approx(y, -2, 1e-6) || !approx(x, 2, 1e-6) {
		t.Errorf("(x, y) = (%v, %v), want (2, −2)", x, y)
	}
}

func TestDegenerateNoCycle(t *testing.T) {
	// Beale's classic cycling example; Bland's rule must terminate.
	// min −0.75x4 + 150x5 − 0.02x6 + 6x7
	// s.t. 0.25x4 − 60x5 − 0.04x6 + 9x7 ≤ 0
	//      0.5x4 − 90x5 − 0.02x6 + 3x7 ≤ 0
	//      x6 ≤ 1
	// optimum −0.05.
	p := mustProblem(t, []float64{-0.75, 150, -0.02, 6})
	addCon(t, p, []float64{0.25, -60, -0.04, 9}, LE, 0)
	addCon(t, p, []float64{0.5, -90, -0.02, 3}, LE, 0)
	addCon(t, p, []float64{0, 0, 1, 0}, LE, 1)
	s := solve(t, p)
	if !approx(s.Objective, -0.05, 1e-6) {
		t.Errorf("obj = %v, want −0.05", s.Objective)
	}
}

func TestRedundantConstraints(t *testing.T) {
	// Duplicate equality rows must not break phase 1.
	p := mustProblem(t, []float64{1, 1})
	addCon(t, p, []float64{1, 1}, EQ, 6)
	addCon(t, p, []float64{2, 2}, EQ, 12)
	addCon(t, p, []float64{1, 0}, GE, 2)
	s := solve(t, p)
	if !approx(s.Objective, 6, 1e-6) {
		t.Errorf("obj = %v, want 6", s.Objective)
	}
}

func TestMinimaxScheduling(t *testing.T) {
	// The exact structure the Pareto modeler emits: minimize v subject
	// to v ≥ m_i x_i + c_i, Σx_i = N. With m = (1,2), c = (0,0), N = 30
	// the balance point is x1 = 20, x2 = 10, v = 20.
	p := mustProblem(t, []float64{0, 0, 1}) // vars: x1, x2, v
	addCon(t, p, []float64{1, 0, -1}, LE, 0)
	addCon(t, p, []float64{0, 2, -1}, LE, 0)
	addCon(t, p, []float64{1, 1, 0}, EQ, 30)
	s := solve(t, p)
	if !approx(s.X[0], 20, 1e-6) || !approx(s.X[1], 10, 1e-6) || !approx(s.X[2], 20, 1e-6) {
		t.Errorf("got %v, want [20 10 20]", s.X)
	}
}

// bruteForce finds the optimal vertex of a small LP (all vars ≥ 0) by
// enumerating basis subsets of the constraint set (including the
// nonnegativity bounds) and checking feasibility — exponential, but
// exact for cross-validation.
func bruteForce(obj []float64, cons []constraint) (float64, bool) {
	n := len(obj)
	// All hyperplanes: each constraint as equality + each axis x_i = 0.
	type plane struct {
		a []float64
		b float64
	}
	var planes []plane
	for _, c := range cons {
		planes = append(planes, plane{c.coeffs, c.rhs})
	}
	for i := 0; i < n; i++ {
		a := make([]float64, n)
		a[i] = 1
		planes = append(planes, plane{a, 0})
	}
	best := math.Inf(1)
	found := false
	idx := make([]int, n)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == n {
			// Solve the n×n system.
			A := make([][]float64, n)
			b := make([]float64, n)
			for r := 0; r < n; r++ {
				A[r] = append([]float64(nil), planes[idx[r]].a...)
				b[r] = planes[idx[r]].b
			}
			x, ok := gauss(A, b)
			if !ok {
				return
			}
			// Feasibility.
			for _, v := range x {
				if v < -1e-7 {
					return
				}
			}
			for _, c := range cons {
				lhs := 0.0
				for i := range x {
					lhs += c.coeffs[i] * x[i]
				}
				switch c.op {
				case LE:
					if lhs > c.rhs+1e-7 {
						return
					}
				case GE:
					if lhs < c.rhs-1e-7 {
						return
					}
				case EQ:
					if math.Abs(lhs-c.rhs) > 1e-7 {
						return
					}
				}
			}
			val := 0.0
			for i := range x {
				val += obj[i] * x[i]
			}
			if val < best {
				best = val
				found = true
			}
			return
		}
		for i := start; i < len(planes); i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
	return best, found
}

func gauss(A [][]float64, b []float64) ([]float64, bool) {
	n := len(b)
	for col := 0; col < n; col++ {
		piv := -1
		bestAbs := 1e-9
		for r := col; r < n; r++ {
			if math.Abs(A[r][col]) > bestAbs {
				bestAbs = math.Abs(A[r][col])
				piv = r
			}
		}
		if piv < 0 {
			return nil, false
		}
		A[col], A[piv] = A[piv], A[col]
		b[col], b[piv] = b[piv], b[col]
		inv := 1 / A[col][col]
		for j := col; j < n; j++ {
			A[col][j] *= inv
		}
		b[col] *= inv
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := A[r][col]
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				A[r][j] -= f * A[col][j]
			}
			b[r] -= f * b[col]
		}
	}
	return b, true
}

func TestRandomLPsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(2) // 2–3 variables keeps brute force fast
		obj := make([]float64, n)
		for i := range obj {
			obj[i] = math.Round(rng.Float64()*20-10) / 2
		}
		p := mustProblem(t, obj)
		var cons []constraint
		nc := 2 + rng.Intn(3)
		for c := 0; c < nc; c++ {
			coeffs := make([]float64, n)
			for i := range coeffs {
				coeffs[i] = math.Round(rng.Float64()*10-2) / 2
			}
			rhs := math.Round(rng.Float64() * 20)
			addCon(t, p, coeffs, LE, rhs)
			cons = append(cons, constraint{coeffs, LE, rhs})
		}
		// Add a bounding box so the LP is never unbounded.
		for i := 0; i < n; i++ {
			coeffs := make([]float64, n)
			coeffs[i] = 1
			addCon(t, p, coeffs, LE, 50)
			cons = append(cons, constraint{coeffs, LE, 50})
		}
		sv := p.NewSolver()
		s, err := sv.Solve()
		want, feasible := bruteForce(obj, cons)
		if !feasible {
			if !errors.Is(err, ErrInfeasible) {
				t.Errorf("trial %d: brute force infeasible, solver said %v", trial, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("trial %d: solver failed (%v), brute force found %v", trial, err, want)
			continue
		}
		if !approx(s.Objective, want, 1e-5) {
			t.Errorf("trial %d: solver %v, brute force %v", trial, s.Objective, want)
		}
		checkOptimal(t, p, obj, s, sv.Basis())
	}
}

func TestAccessors(t *testing.T) {
	p := mustProblem(t, []float64{1, 2})
	addCon(t, p, []float64{1, 1}, LE, 5)
	if LE.String() != "<=" || EQ.String() != "=" || GE.String() != ">=" {
		t.Error("op strings wrong")
	}
	if Op(7).String() == "" {
		t.Error("unknown op must print")
	}
}

func TestZeroConstraintProblem(t *testing.T) {
	// min x with no constraints: optimum x = 0.
	p := mustProblem(t, []float64{1})
	s := solve(t, p)
	if !approx(s.X[0], 0, 1e-9) {
		t.Errorf("x = %v, want 0", s.X[0])
	}
}

func TestDegenerateCyclingReportsIterations(t *testing.T) {
	// Beale's cycling LP again, this time auditing the new pivot
	// counter: Bland's rule must terminate well inside the iteration
	// limit with the count visible on the solution. Textbook simplex
	// with Dantzig's rule cycles forever on this problem.
	p := mustProblem(t, []float64{-0.75, 150, -0.02, 6})
	addCon(t, p, []float64{0.25, -60, -0.04, 9}, LE, 0)
	addCon(t, p, []float64{0.5, -90, -0.02, 3}, LE, 0)
	addCon(t, p, []float64{0, 0, 1, 0}, LE, 1)
	s := solve(t, p)
	if !approx(s.Objective, -0.05, 1e-6) {
		t.Errorf("obj = %v, want −0.05", s.Objective)
	}
	if s.Iterations <= 0 {
		t.Errorf("Iterations = %d, want > 0 (pivots must be counted)", s.Iterations)
	}
	if s.Iterations > 100 {
		t.Errorf("Iterations = %d: Bland's rule should finish this 3×4 LP in a handful of pivots", s.Iterations)
	}
}

func TestIterationsZeroWhenAlreadyOptimal(t *testing.T) {
	// min x s.t. x ≤ 5: the initial slack basis is already optimal.
	p := mustProblem(t, []float64{1})
	addCon(t, p, []float64{1}, LE, 5)
	s := solve(t, p)
	if s.Iterations != 0 {
		t.Errorf("Iterations = %d, want 0 for an immediately optimal basis", s.Iterations)
	}
}

// paperLP builds the modeler's α-scalarized LP at p partitions:
// variables x_0..x_{p−1}, v; per-node constraints m_i x_i + c_i ≤ v
// folded with the dirty-rate term, and Σ x_i = n (§III-D shape).
func paperLP(p int, alpha float64, n float64) *Problem {
	obj := make([]float64, p+1)
	obj[p] = alpha
	for j := 0; j < p; j++ {
		obj[j] = (1 - alpha) * 0.002 * float64(j%4+1)
	}
	prob, err := NewProblem(obj)
	if err != nil {
		panic(err)
	}
	for j := 0; j < p; j++ {
		coeffs := make([]float64, p+1)
		coeffs[j] = 1 / float64(5-j%4)
		coeffs[p] = -1
		if err := prob.AddConstraint(coeffs, LE, 0); err != nil {
			panic(err)
		}
	}
	sum := make([]float64, p+1)
	for j := 0; j < p; j++ {
		sum[j] = 1
	}
	if err := prob.AddConstraint(sum, EQ, n); err != nil {
		panic(err)
	}
	return prob
}

func TestSolveAllocsBounded(t *testing.T) {
	// The flat-tableau rewrite carves all solver state out of two slabs;
	// allocations must not scale with the pivot count. The old
	// implementation allocated a fresh c_B vector every iteration plus a
	// slice header per row (~80+ allocs on this problem).
	prob := paperLP(16, 0.999, 1e6)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := prob.NewSolver().Solve(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("Solve allocated %.0f times, want ≤ 8 (slab-allocated tableau)", allocs)
	}
}

func BenchmarkLPSolve(b *testing.B) {
	// The paper-shaped LP: P nodes, α-scalarized time/energy objective.
	for _, p := range []int{16, 64} {
		prob := paperLP(p, 0.999, 1e6)
		b.Run("P"+strconv.Itoa(p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := prob.NewSolver().Solve(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSolve16Nodes(b *testing.B) {
	// The modeler's LP at 16 partitions: 17 vars, 17 constraints.
	for i := 0; i < b.N; i++ {
		obj := make([]float64, 17)
		obj[16] = 1
		for j := 0; j < 16; j++ {
			obj[j] = 0.001 * float64(j+1)
		}
		p, _ := NewProblem(obj)
		for j := 0; j < 16; j++ {
			coeffs := make([]float64, 17)
			coeffs[j] = float64(j%4 + 1)
			coeffs[16] = -1
			_ = p.AddConstraint(coeffs, LE, 0)
		}
		sum := make([]float64, 17)
		for j := 0; j < 16; j++ {
			sum[j] = 1
		}
		_ = p.AddConstraint(sum, EQ, 1e6)
		if _, err := p.NewSolver().Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// referenceX is the extraction the solver used before the vertex
// factorization served both jobs, kept here as the reference: it
// gathers the basis matrix from a0 (columns ascending), solves
// B·x_B = b0 by Gauss–Jordan elimination with partial pivoting
// (lowest-row tie-break), and maps x_B back to problem coordinates.
// Returns false on a numerically singular basis matrix.
func referenceX(s *Solver) ([]float64, bool) {
	m := s.m
	bcols := append([]int(nil), s.t.basis...)
	sort.Ints(bcols)
	A := make([]float64, m*m)
	y := make([]float64, m)
	for r := 0; r < m; r++ {
		for k, col := range bcols {
			A[r*m+k] = s.a0[r*s.total+col]
		}
		y[r] = s.b0[r]
	}
	for col := 0; col < m; col++ {
		piv := -1
		best := 1e-12
		for r := col; r < m; r++ {
			if v := math.Abs(A[r*m+col]); v > best {
				best = v
				piv = r
			}
		}
		if piv < 0 {
			return nil, false
		}
		if piv != col {
			for j := col; j < m; j++ {
				A[col*m+j], A[piv*m+j] = A[piv*m+j], A[col*m+j]
			}
			y[col], y[piv] = y[piv], y[col]
		}
		inv := 1 / A[col*m+col]
		for j := col; j < m; j++ {
			A[col*m+j] *= inv
		}
		y[col] *= inv
		for r := 0; r < m; r++ {
			if r == col {
				continue
			}
			f := A[r*m+col]
			if f == 0 {
				continue
			}
			for j := col; j < m; j++ {
				A[r*m+j] -= f * A[col*m+j]
			}
			y[r] -= f * y[col]
		}
	}
	xcols := make([]float64, s.total)
	for k, col := range bcols {
		if math.IsNaN(y[k]) || math.IsInf(y[k], 0) {
			return nil, false
		}
		xcols[col] = y[k]
	}
	return xcols[:s.p.numVars], true
}

// checkAgainstReference holds sol.X, extracted from the vertex
// factorization, against referenceX at the solver's current basis —
// they may differ in rounding only, 1e-12 relative to the largest
// component — and returns the reference.
func checkAgainstReference(t testing.TB, s *Solver, sol *Solution) []float64 {
	t.Helper()
	ref, ok := referenceX(s)
	if !ok {
		t.Fatal("reference extraction found the basis matrix singular")
	}
	scale := 1.0
	for _, v := range ref {
		scale = math.Max(scale, math.Abs(v))
	}
	for i := range ref {
		if d := math.Abs(sol.X[i] - ref[i]); d > 1e-12*scale {
			t.Errorf("X[%d] = %v, Gauss–Jordan reference %v (|Δ| %.3g > 1e-12·%.3g)", i, sol.X[i], ref[i], d, scale)
		}
	}
	return ref
}

func TestExtractionMatchesGaussJordanReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	check := func(name string, p *Problem, objs [][]float64) {
		t.Helper()
		s := p.NewSolver()
		sol, err := s.Solve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkAgainstReference(t, s, sol)
		checkOptimal(t, p, p.obj, sol, s.Basis())
		for _, obj := range objs {
			if sol, err = s.ReSolve(obj); err != nil {
				t.Fatalf("%s: ReSolve: %v", name, err)
			}
			checkAgainstReference(t, s, sol)
			checkOptimal(t, p, obj, sol, s.Basis())
		}
	}
	// Paper-shaped: the α ladder over seeded node counts and totals.
	for trial := 0; trial < 10; trial++ {
		p := 2 + rng.Intn(40)
		var objs [][]float64
		for _, alpha := range alphaLadder {
			objs = append(objs, paperObj(p, alpha))
		}
		check("paper", paperLP(p, 0.5, 1e3+rng.Float64()*1e6), objs)
	}
	// Degenerate: several constraints meet at the optimal vertex, and
	// one row repeats another (an artificial stays basic at zero).
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(3)
		obj := make([]float64, n)
		ones := make([]float64, n)
		for i := range obj {
			obj[i] = -1 - math.Round(rng.Float64()*4)
			ones[i] = 1
		}
		p := mustProblem(t, obj)
		for i := 0; i < n; i++ {
			row := make([]float64, n)
			row[i] = 1
			addCon(t, p, row, LE, 4)
			row[(i+1)%n] = 1
			addCon(t, p, row, LE, 8)
		}
		addCon(t, p, ones, EQ, float64(4*n))
		addCon(t, p, ones, EQ, float64(4*n))
		reobj := make([]float64, n)
		for i := range reobj {
			reobj[i] = math.Round(rng.Float64()*10 - 5)
		}
		check("degenerate", p, [][]float64{reobj})
	}
	// Mixed operators, negative right-hand sides.
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(3)
		obj := make([]float64, n)
		for i := range obj {
			obj[i] = math.Round(rng.Float64()*10-5) / 2
		}
		p := mustProblem(t, obj)
		for i := 0; i < n; i++ { // a box keeps every objective bounded
			row := make([]float64, n)
			row[i] = 1
			addCon(t, p, row, LE, 10+math.Round(rng.Float64()*10))
			addCon(t, p, row, GE, -math.Round(rng.Float64()*5)*float64(i/(n-1)))
		}
		for c := 0; c < 2; c++ {
			row := make([]float64, n)
			for i := range row {
				row[i] = math.Round(rng.Float64()*8-2) / 2
			}
			addCon(t, p, row, LE, 5+math.Round(rng.Float64()*20))
		}
		reobj := make([]float64, n)
		for i := range reobj {
			reobj[i] = math.Round(rng.Float64()*10-5) / 2
		}
		check("mixed", p, [][]float64{reobj})
	}
}
