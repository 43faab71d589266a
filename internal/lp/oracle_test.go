package lp

import (
	"math"
	"testing"
)

// checkOptimal is an optimality oracle that shares no arithmetic with
// the solver. From the Problem's own data, the objective the solve ran
// under, the reported Solution and the reported basis it verifies the
// three conditions that together prove an LP solution optimal:
//
//   - primal feasibility: every constraint and sign restriction holds
//     at sol.X;
//   - dual feasibility: with y solving Bᵀ·y = c_B (its own dense
//     Gauss–Jordan solve, not the solver's factorization), every
//     structural and slack column prices out at c_j − yᵀ·A_j ≥ 0;
//   - complementary slackness: (c_j − yᵀ·A_j)·x_j = 0 on every column,
//     and the primal and dual objectives agree.
//
// The standard form is rebuilt here from the documented column layout
// (one column per variable; slacks in row order; artificials in row
// order; rows with a negative right-hand side negated), which is also
// what gives Solver.Basis() its meaning.
// Warm = cold then rests on a certificate per answer, not on two code
// paths agreeing with each other.
func checkOptimal(t testing.TB, p *Problem, obj []float64, sol *Solution, basis []int) {
	t.Helper()
	m := len(p.cons)
	scale := 1.0
	for _, v := range obj {
		scale = math.Max(scale, math.Abs(v))
	}
	for _, v := range sol.X {
		scale = math.Max(scale, math.Abs(v))
	}
	for _, c := range p.cons {
		scale = math.Max(scale, math.Abs(c.rhs))
	}
	tol := 1e-7 * scale

	// Primal feasibility, in problem coordinates.
	for i, v := range sol.X {
		if v < -tol {
			t.Errorf("oracle: x[%d] = %v violates x ≥ 0", i, v)
		}
	}
	lhs := make([]float64, m)
	for r, c := range p.cons {
		for i, a := range c.coeffs {
			lhs[r] += a * sol.X[i]
		}
		ok := true
		switch c.op {
		case LE:
			ok = lhs[r] <= c.rhs+tol
		case GE:
			ok = lhs[r] >= c.rhs-tol
		case EQ:
			ok = math.Abs(lhs[r]-c.rhs) <= tol
		}
		if !ok {
			t.Errorf("oracle: constraint %d violated: %v %v %v", r, lhs[r], c.op, c.rhs)
		}
	}

	// Standard form: columns, costs, the point's value on every column.
	nStruct := p.numVars // variable i is column i
	// Normalize each row to a nonnegative right-hand side (≤ ↔ ≥ on a
	// sign flip) and count the slack and artificial columns.
	sign := make([]float64, m)
	ops := make([]Op, m)
	nSlack, nArt := 0, 0
	for r, c := range p.cons {
		sign[r], ops[r] = 1, c.op
		if c.rhs < 0 {
			sign[r] = -1
			switch c.op {
			case LE:
				ops[r] = GE
			case GE:
				ops[r] = LE
			}
		}
		if ops[r] != EQ {
			nSlack++
		}
		if ops[r] != LE {
			nArt++
		}
	}
	nReal := nStruct + nSlack
	total := nReal + nArt
	A := make([][]float64, m)
	b := make([]float64, m)
	cost := make([]float64, total)
	x := make([]float64, total)
	for i, v := range sol.X {
		cost[i] = obj[i]
		x[i] = v
	}
	slack, art := nStruct, nReal
	for r, c := range p.cons {
		A[r] = make([]float64, total)
		for i, a := range c.coeffs {
			A[r][i] = sign[r] * a
		}
		b[r] = sign[r] * c.rhs
		switch ops[r] {
		case LE:
			A[r][slack] = 1
			x[slack] = b[r] - sign[r]*lhs[r]
			slack++
		case GE:
			A[r][slack] = -1
			x[slack] = sign[r]*lhs[r] - b[r]
			slack++
			A[r][art] = 1
			art++
		case EQ:
			A[r][art] = 1
			art++
		}
	}

	// The basis: m distinct columns.
	if len(basis) != m {
		t.Fatalf("oracle: basis has %d columns, want %d", len(basis), m)
	}
	inBasis := make([]bool, total)
	for _, j := range basis {
		if j < 0 || j >= total || inBasis[j] {
			t.Fatalf("oracle: basis %v is not %d distinct columns in [0,%d)", basis, m, total)
		}
		inBasis[j] = true
	}

	// Duals from an independent dense solve of Bᵀ·y = c_B.
	Bt := make([][]float64, m)
	cB := make([]float64, m)
	for k, j := range basis {
		Bt[k] = make([]float64, m)
		for r := 0; r < m; r++ {
			Bt[k][r] = A[r][j]
		}
		cB[k] = cost[j]
	}
	y, ok := gauss(Bt, cB)
	if !ok {
		t.Fatalf("oracle: basis %v is singular", basis)
	}

	// Dual feasibility and complementary slackness over the real
	// (non-artificial) columns; artificials are not part of the LP.
	primal, dual := 0.0, 0.0
	for j := 0; j < nReal; j++ {
		d := cost[j]
		for r := 0; r < m; r++ {
			d -= y[r] * A[r][j]
		}
		if d < -tol {
			t.Errorf("oracle: column %d prices out at %v < 0: the basis is not optimal", j, d)
		}
		if !inBasis[j] && math.Abs(x[j]) > tol {
			t.Errorf("oracle: nonbasic column %d sits at %v, not 0", j, x[j])
		}
		if math.Abs(d*x[j]) > tol*scale {
			t.Errorf("oracle: complementary slackness fails on column %d: reduced cost %v × value %v", j, d, x[j])
		}
		primal += cost[j] * x[j]
	}
	for r := 0; r < m; r++ {
		dual += y[r] * b[r]
	}
	if math.Abs(primal-dual) > tol*scale {
		t.Errorf("oracle: primal objective %v ≠ dual objective %v", primal, dual)
	}
	if math.Abs(sol.Objective-primal) > tol*scale {
		t.Errorf("oracle: reported objective %v, c·x = %v", sol.Objective, primal)
	}
}

func TestOracleRejectsSuboptimalVertex(t *testing.T) {
	// The oracle must be able to say no: hand it a feasible vertex that
	// is not optimal and a basis that does not match the point.
	p := mustProblem(t, []float64{-1, -1})
	addCon(t, p, []float64{1, 0}, LE, 4)
	addCon(t, p, []float64{0, 1}, LE, 3)
	s := p.NewSolver()
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	checkOptimal(t, p, p.obj, sol, s.Basis())

	// The origin with the all-slack basis: feasible, not optimal.
	if oracleErrors(p, p.obj, &Solution{X: []float64{0, 0}}, []int{2, 3}) == 0 {
		t.Error("oracle accepted the origin as optimal for min −x−y")
	}
	// The optimal point under a basis that does not produce it.
	if oracleErrors(p, p.obj, sol, []int{2, 3}) == 0 {
		t.Error("oracle accepted a basis that does not support the point")
	}
	// An infeasible point.
	if oracleErrors(p, p.obj, &Solution{X: []float64{5, 3}, Objective: -8}, s.Basis()) == 0 {
		t.Error("oracle accepted an infeasible point")
	}
}

// oracleErrors runs checkOptimal against a recorder and returns how
// many failures it reported.
func oracleErrors(p *Problem, obj []float64, sol *Solution, basis []int) (n int) {
	rec := &recorder{}
	defer func() {
		if r := recover(); r != nil && r != rec {
			panic(r)
		}
		n = rec.errors
	}()
	checkOptimal(rec, p, obj, sol, basis)
	return rec.errors
}

// recorder is a testing.TB that counts failures instead of failing.
type recorder struct {
	testing.TB
	errors int
}

func (r *recorder) Helper()                       {}
func (r *recorder) Errorf(string, ...interface{}) { r.errors++ }
func (r *recorder) Fatalf(string, ...interface{}) { r.errors++; panic(r) }
