package lp

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// sizingProblem builds the partition-sizing LP shape over p nodes:
// variables s_0..s_{p-1}, v; rows m_i·s_i − v ≤ −c_i, then
// Σs = 1. Returns the problem and the scalarized objective.
func sizingProblem(t *testing.T, slopes, intercepts []float64, alpha float64) (*Problem, []float64) {
	t.Helper()
	p := len(slopes)
	obj := make([]float64, p+1)
	for i := range slopes {
		obj[i] = (1 - alpha) * slopes[i]
	}
	obj[p] = alpha
	prob, err := NewProblem(obj)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p; i++ {
		row := make([]float64, p+1)
		row[i] = slopes[i]
		row[p] = -1
		if err := prob.AddConstraint(row, LE, -intercepts[i]); err != nil {
			t.Fatal(err)
		}
	}
	sum := make([]float64, p+1)
	for i := 0; i < p; i++ {
		sum[i] = 1
	}
	if err := prob.AddConstraint(sum, EQ, 1); err != nil {
		t.Fatal(err)
	}
	return prob, obj
}

// sizingUpdates returns the ConstraintUpdates that retarget a sizing
// problem at new slopes/intercepts.
func sizingUpdates(p int, slopes, intercepts []float64) []ConstraintUpdate {
	ups := make([]ConstraintUpdate, p)
	for i := 0; i < p; i++ {
		row := make([]float64, p+1)
		row[i] = slopes[i]
		row[p] = -1
		ups[i] = ConstraintUpdate{Row: i, Coeffs: row, RHS: -intercepts[i]}
	}
	return ups
}

// TestReSolveModelMatchesColdSizing drives the sizing LP through a
// chain of model perturbations and checks every warm re-solve is
// bit-identical to a cold solve of the same model.
func TestReSolveModelMatchesColdSizing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const p = 8
	slopes := make([]float64, p)
	intercepts := make([]float64, p)
	for i := range slopes {
		slopes[i] = 0.5 + rng.Float64()*4
		intercepts[i] = rng.Float64() * 10
	}
	alpha := 0.5
	prob, obj := sizingProblem(t, slopes, intercepts, alpha)
	sv := prob.NewSolver()
	if _, err := sv.Solve(); err != nil {
		t.Fatal(err)
	}

	warmCount := 0
	for step := 0; step < 25; step++ {
		// Perturb a random subset of node models, as drift-driven
		// re-profiling would.
		for i := range slopes {
			if rng.Intn(3) == 0 {
				slopes[i] = 0.5 + rng.Float64()*4
				intercepts[i] = rng.Float64() * 10
			}
		}
		newObj := make([]float64, p+1)
		for i := 0; i < p; i++ {
			newObj[i] = (1 - alpha) * slopes[i]
		}
		newObj[p] = alpha
		sol, err := sv.ReSolveModel(newObj, sizingUpdates(p, slopes, intercepts))
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if sol.Warm {
			warmCount++
		}
		checkOptimal(t, prob, newObj, sol, sv.Basis())

		coldProb, _ := sizingProblem(t, slopes, intercepts, alpha)
		coldProb.obj = newObj
		cold, err := coldProb.NewSolver().Solve()
		if err != nil {
			t.Fatalf("step %d cold: %v", step, err)
		}
		for i := range cold.X {
			if sol.X[i] != cold.X[i] {
				t.Fatalf("step %d (warm=%v): X[%d] = %v, cold %v", step, sol.Warm, i, sol.X[i], cold.X[i])
			}
		}
		if sol.Objective != cold.Objective {
			t.Fatalf("step %d: objective %v, cold %v", step, sol.Objective, cold.Objective)
		}
	}
	if warmCount == 0 {
		t.Fatal("no step re-solved warm; the warm path never ran")
	}
	_ = obj
}

// TestReSolveModelInfeasibleBasisFallsBack shrinks a binding bound so
// the retained vertex goes primal-infeasible: the solve must fall back
// to a cold run and still return the new optimum.
func TestReSolveModelInfeasibleBasisFallsBack(t *testing.T) {
	prob, err := NewProblem([]float64{-1})
	if err != nil {
		t.Fatal(err)
	}
	if err := prob.AddConstraint([]float64{1}, LE, 10); err != nil {
		t.Fatal(err)
	}
	if err := prob.AddConstraint([]float64{1}, LE, 20); err != nil {
		t.Fatal(err)
	}
	sv := prob.NewSolver()
	sol, err := sv.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.X[0] != 10 {
		t.Fatalf("x = %v, want 10", sol.X[0])
	}
	// Tighten the slack row below the retained vertex: x ≤ 5 while the
	// basis still pins x = 10 ⇒ refactorized RHS goes negative.
	sol, err = sv.ReSolveModel([]float64{-1}, []ConstraintUpdate{{Row: 1, Coeffs: []float64{1}, RHS: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Warm {
		t.Fatal("infeasible retained basis must force a cold solve")
	}
	if sol.X[0] != 5 {
		t.Fatalf("x = %v, want 5", sol.X[0])
	}
	// The solver recovers warm behavior after the cold rebuild.
	sol, err = sv.ReSolveModel([]float64{-1}, []ConstraintUpdate{{Row: 1, Coeffs: []float64{1}, RHS: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if sol.X[0] != 7 {
		t.Fatalf("x = %v, want 7", sol.X[0])
	}
}

// TestReSolveModelSignFlipFallsBack flips an inequality's RHS sign,
// which would relayout the slack/artificial columns: structural, so
// cold.
func TestReSolveModelSignFlipFallsBack(t *testing.T) {
	prob, err := NewProblem([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := prob.AddConstraint([]float64{-1}, LE, -2); err != nil { // x ≥ 2
		t.Fatal(err)
	}
	sv := prob.NewSolver()
	if _, err := sv.Solve(); err != nil {
		t.Fatal(err)
	}
	sol, err := sv.ReSolveModel([]float64{1}, []ConstraintUpdate{{Row: 0, Coeffs: []float64{1}, RHS: 3}}) // x ≤ 3
	if err != nil {
		t.Fatal(err)
	}
	if sol.Warm {
		t.Fatal("RHS sign flip on an inequality must force a cold solve")
	}
	if sol.X[0] != 0 {
		t.Fatalf("x = %v, want 0 (minimize x s.t. x ≤ 3)", sol.X[0])
	}
}

// TestReSolveModelGeneralChain exercises warm model re-solves on a
// general LP with ≤/≥/= rows, against cold reference solves.
func TestReSolveModelGeneralChain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	build := func(a, b, c float64) (*Problem, []float64) {
		obj := []float64{1, 2, 0.5}
		prob, err := NewProblem(obj)
		if err != nil {
			t.Fatal(err)
		}
		if err := prob.AddConstraint([]float64{1, 1, 1}, GE, a); err != nil {
			t.Fatal(err)
		}
		if err := prob.AddConstraint([]float64{2, 1, 0}, LE, b); err != nil {
			t.Fatal(err)
		}
		if err := prob.AddConstraint([]float64{1, -1, 2}, EQ, c); err != nil {
			t.Fatal(err)
		}
		return prob, obj
	}
	a, b, c := 4.0, 10.0, 1.0
	prob, obj := build(a, b, c)
	sv := prob.NewSolver()
	if _, err := sv.Solve(); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 30; step++ {
		a = 2 + rng.Float64()*6
		b = 8 + rng.Float64()*8
		c = rng.Float64()*4 - 1 // EQ rows tolerate sign changes
		ups := []ConstraintUpdate{
			{Row: 0, Coeffs: []float64{1, 1, 1}, RHS: a},
			{Row: 1, Coeffs: []float64{2, 1 + rng.Float64(), 0}, RHS: b},
			{Row: 2, Coeffs: []float64{1, -1, 2}, RHS: c},
		}
		sol, err := sv.ReSolveModel(obj, ups)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkOptimal(t, prob, obj, sol, sv.Basis())
		coldProb, _ := build(a, b, c)
		coldProb.cons[1].coeffs[1] = ups[1].Coeffs[1]
		cold, err := coldProb.NewSolver().Solve()
		if err != nil {
			t.Fatalf("step %d cold: %v", step, err)
		}
		if math.Abs(sol.Objective-cold.Objective) > 1e-7 {
			t.Fatalf("step %d (warm=%v): objective %v, cold %v", step, sol.Warm, sol.Objective, cold.Objective)
		}
	}
}

// TestReSolveModelUnboundedRecovery: an unbounded warm re-solve
// reports ErrUnbounded and leaves the solver usable.
func TestReSolveModelUnboundedRecovery(t *testing.T) {
	prob, err := NewProblem([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := prob.AddConstraint([]float64{1, 1}, GE, 2); err != nil {
		t.Fatal(err)
	}
	sv := prob.NewSolver()
	if _, err := sv.Solve(); err != nil {
		t.Fatal(err)
	}
	if _, err := sv.ReSolveModel([]float64{-1, 0}, nil); err != ErrUnbounded {
		t.Fatalf("err = %v, want ErrUnbounded", err)
	}
	sol, err := sv.ReSolveModel([]float64{1, 1}, []ConstraintUpdate{{Row: 0, Coeffs: []float64{1, 1}, RHS: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-3) > 1e-9 {
		t.Fatalf("objective = %v, want 3", sol.Objective)
	}
}

func TestReSolveModelValidation(t *testing.T) {
	prob, err := NewProblem([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := prob.AddConstraint([]float64{1}, GE, 1); err != nil {
		t.Fatal(err)
	}
	sv := prob.NewSolver()
	if _, err := sv.ReSolveModel([]float64{1, 2}, nil); err == nil {
		t.Fatal("wrong objective length accepted")
	}
	if _, err := sv.ReSolveModel([]float64{1}, []ConstraintUpdate{{Row: 5, Coeffs: []float64{1}, RHS: 1}}); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	if _, err := sv.ReSolveModel([]float64{1}, []ConstraintUpdate{{Row: 0, Coeffs: []float64{1, 2}, RHS: 1}}); err == nil {
		t.Fatal("wrong coefficient length accepted")
	}
	// Without a prior solve the fallback runs cold and still applies
	// the updates.
	sol, err := sv.ReSolveModel([]float64{1}, []ConstraintUpdate{{Row: 0, Coeffs: []float64{1}, RHS: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Warm || math.Abs(sol.X[0]-4) > 1e-9 {
		t.Fatalf("cold fallback: warm=%v x=%v, want cold x=4", sol.Warm, sol.X[0])
	}
}

// freshSolve solves p's current model under obj on a new Solver: the
// answer no retained state can have touched.
func freshSolve(t *testing.T, p *Problem, obj []float64) *Solution {
	t.Helper()
	cp := mustProblem(t, obj)
	for _, c := range p.cons {
		addCon(t, cp, c.coeffs, c.op, c.rhs)
	}
	sol, err := cp.NewSolver().Solve()
	if err != nil {
		t.Fatalf("fresh solve: %v", err)
	}
	return sol
}

func sameAnswer(t *testing.T, label string, got, want *Solution) {
	t.Helper()
	if !reflect.DeepEqual(got.X, want.X) || got.Objective != want.Objective {
		t.Errorf("%s: X %v objective %v, a fresh solver gives X %v objective %v",
			label, got.X, got.Objective, want.X, want.Objective)
	}
}

// TestFactorizationNeverStale walks the ways the retained vertex
// factorization could outlive the vertex or the model it was computed
// for; every answer must equal a fresh Solver's bit for bit.
func TestFactorizationNeverStale(t *testing.T) {
	t.Run("model rewritten under an unchanged basis set", func(t *testing.T) {
		// refactorize re-derives the tableau with m pivots and then
		// restores the pivot counter, so counter and basis set both read
		// "nothing happened" while a0/b0 hold new coefficients.
		slopes := []float64{4, 3, 2, 1, 4.1, 3.1, 2.1, 1.1}
		intercepts := []float64{0, 0.05, 0.1, 0.15, 0, 0.05, 0.1, 0.15}
		prob, obj := sizingProblem(t, slopes, intercepts, 0.9)
		sv := prob.NewSolver()
		if _, err := sv.Solve(); err != nil {
			t.Fatal(err)
		}
		sol, err := sv.ReSolve(obj)
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, "ReSolve", sol, freshSolve(t, prob, obj))
		before, pivots := sortedInts(sv.Basis()), sv.t.pivots
		for i := range slopes {
			slopes[i] *= 1.001
			intercepts[i] *= 0.999
		}
		sol, err = sv.ReSolveModel(obj, sizingUpdates(len(slopes), slopes, intercepts))
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Warm || sol.Iterations != 0 || sv.t.pivots != pivots || !reflect.DeepEqual(sortedInts(sv.Basis()), before) {
			t.Fatalf("warm=%v iterations=%d pivots %d→%d basis %v→%v: the update no longer keeps the vertex, pick a smaller one",
				sol.Warm, sol.Iterations, pivots, sv.t.pivots, before, sortedInts(sv.Basis()))
		}
		sameAnswer(t, "ReSolveModel", sol, freshSolve(t, prob, obj))
		checkOptimal(t, prob, obj, sol, sv.Basis())
	})

	t.Run("warm to cold through build", func(t *testing.T) {
		prob := mustProblem(t, []float64{-1, -2})
		addCon(t, prob, []float64{1, 1}, LE, 10)
		addCon(t, prob, []float64{0, 1}, LE, 20)
		sv := prob.NewSolver()
		if _, err := sv.Solve(); err != nil {
			t.Fatal(err)
		}
		// x₂ ≤ 4 cuts the retained vertex (0, 10) off: cold rebuild.
		obj := []float64{-1, -2}
		sol, err := sv.ReSolveModel(obj, []ConstraintUpdate{{Row: 1, Coeffs: []float64{0, 1}, RHS: 4}})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Warm {
			t.Fatal("an infeasible retained basis must force a cold solve")
		}
		sameAnswer(t, "cold fallback", sol, freshSolve(t, prob, obj))
		obj = []float64{1, -1}
		if sol, err = sv.ReSolve(obj); err != nil {
			t.Fatal(err)
		}
		if !sol.Warm {
			t.Error("ReSolve after the rebuild ran cold")
		}
		sameAnswer(t, "ReSolve after the rebuild", sol, freshSolve(t, prob, obj))
	})

	t.Run("unbounded then bounded", func(t *testing.T) {
		prob := mustProblem(t, []float64{1, 1})
		addCon(t, prob, []float64{1, 0}, LE, 4)
		addCon(t, prob, []float64{1, 1}, GE, 1)
		sv := prob.NewSolver()
		if _, err := sv.Solve(); err != nil {
			t.Fatal(err)
		}
		// x₂ is unbounded above; whatever pivots ran before simplex saw
		// that have moved the vertex.
		if _, err := sv.ReSolve([]float64{0, -1}); !errors.Is(err, ErrUnbounded) {
			t.Fatalf("err = %v, want ErrUnbounded", err)
		}
		obj := []float64{-1, 1}
		sol, err := sv.ReSolve(obj)
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Warm {
			t.Error("basis lost after the unbounded re-solve")
		}
		sameAnswer(t, "ReSolve after ErrUnbounded", sol, freshSolve(t, prob, obj))
		checkOptimal(t, prob, obj, sol, sv.Basis())
	})

	t.Run("singular basis matrix", func(t *testing.T) {
		// B = [[1e-7, 0], [1, 1e-7]] is reachable by simplex (both tableau
		// pivots are 1e-7 > eps) but partial pivoting meets 1e-14 on the
		// second column: no factorization, so optimality rests on the
		// tableau's verdict and X on the tableau's right-hand side.
		prob := mustProblem(t, []float64{-1e8, -1})
		addCon(t, prob, []float64{1e-7, 0}, LE, 1)
		addCon(t, prob, []float64{1, 1e-7}, LE, 2e7)
		sv := prob.NewSolver()
		sol, err := sv.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if sv.luOK {
			t.Fatal("basis matrix factorized; the case no longer reaches the fallback")
		}
		if !approx(sol.X[0], 1e7, 1) || !approx(sol.X[1], 1e14, 1e7) {
			t.Errorf("X = %v, want [1e7 1e14] from the tableau", sol.X)
		}
		sameAnswer(t, "Solve", sol, freshSolve(t, prob, prob.obj))
		again, err := sv.ReSolve(prob.obj)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Warm || again.Iterations != 0 {
			t.Errorf("ReSolve at the optimum: warm=%v iterations=%d", again.Warm, again.Iterations)
		}
		sameAnswer(t, "ReSolve", again, sol)
	})
}

func sortedInts(v []int) []int {
	sort.Ints(v)
	return v
}
