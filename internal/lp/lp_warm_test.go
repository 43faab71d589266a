package lp

import (
	"errors"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// paperObj is paperLP's α-scalarized objective, reproduced exactly so
// warm re-solves see bit-identical coefficients to a cold build.
func paperObj(p int, alpha float64) []float64 {
	obj := make([]float64, p+1)
	obj[p] = alpha
	for j := 0; j < p; j++ {
		obj[j] = (1 - alpha) * 0.002 * float64(j%4+1)
	}
	return obj
}

// alphaLadder mirrors the frontier sweep's sampling density.
var alphaLadder = []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.995, 0.999, 0.9995, 0.9999, 1}

func TestReSolveBitIdenticalToCold(t *testing.T) {
	// The warm-start contract the frontier package is built on: a chain
	// of ReSolve calls under changing α must produce bit-identical X to
	// independent cold solves. Solution extraction re-solves the basis
	// system from the original constraint rows in a deterministic order,
	// so this holds whenever warm and cold reach the same optimal basis.
	for _, p := range []int{4, 16, 64} {
		t.Run("P"+strconv.Itoa(p), func(t *testing.T) {
			warm := paperLP(p, alphaLadder[0], 1e6).NewSolver()
			if _, err := warm.Solve(); err != nil {
				t.Fatal(err)
			}
			for _, alpha := range alphaLadder {
				ws, err := warm.ReSolve(paperObj(p, alpha))
				if err != nil {
					t.Fatalf("α=%v: ReSolve: %v", alpha, err)
				}
				cs, err := paperLP(p, alpha, 1e6).NewSolver().Solve()
				if err != nil {
					t.Fatalf("α=%v: cold Solve: %v", alpha, err)
				}
				for i := range cs.X {
					if ws.X[i] != cs.X[i] {
						t.Fatalf("α=%v: X[%d] warm %v != cold %v (not bit-identical)",
							alpha, i, ws.X[i], cs.X[i])
					}
				}
				if ws.Objective != cs.Objective {
					t.Fatalf("α=%v: objective warm %v != cold %v", alpha, ws.Objective, cs.Objective)
				}
			}
		})
	}
}

func TestReSolveIsWarmAndCheap(t *testing.T) {
	// Between adjacent α values a re-solve should cost far fewer pivots
	// than a cold two-phase run — that is the entire point of keeping
	// the basis.
	p := 64
	s := paperLP(p, 0.999, 1e6).NewSolver()
	cold, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if cold.Warm {
		t.Error("cold Solve reported Warm=true")
	}
	if cold.Iterations <= 0 {
		t.Error("cold Solve reported zero pivots on a nontrivial LP")
	}
	totalWarm := 0
	for _, alpha := range []float64{0.995, 0.99, 0.95, 0.9} {
		ws, err := s.ReSolve(paperObj(p, alpha))
		if err != nil {
			t.Fatal(err)
		}
		if !ws.Warm {
			t.Errorf("α=%v: ReSolve reported Warm=false", alpha)
		}
		totalWarm += ws.Iterations
	}
	if totalWarm >= cold.Iterations {
		t.Errorf("4 warm re-solves took %d pivots, cold solve alone took %d — warm start is not paying off",
			totalWarm, cold.Iterations)
	}
}

func TestReSolveWithoutSolveFallsBackCold(t *testing.T) {
	p := paperLP(8, 0.5, 1e5)
	s := p.NewSolver()
	sol, err := s.ReSolve(paperObj(8, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Warm {
		t.Error("ReSolve before any Solve must report Warm=false (cold fallback)")
	}
	want, err := paperLP(8, 0.9, 1e5).NewSolver().Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != want.Objective {
		t.Errorf("fallback objective %v, want %v", sol.Objective, want.Objective)
	}
	// The fallback must not clobber the problem's own objective.
	again, err := p.NewSolver().Solve()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := paperLP(8, 0.5, 1e5).NewSolver().Solve()
	if err != nil {
		t.Fatal(err)
	}
	if again.Objective != ref.Objective {
		t.Errorf("Problem objective mutated by ReSolve fallback: %v != %v", again.Objective, ref.Objective)
	}
}

func TestReSolveWrongWidth(t *testing.T) {
	s := paperLP(8, 0.5, 1e5).NewSolver()
	if _, err := s.ReSolve(make([]float64, 3)); err == nil {
		t.Error("wrong-width objective accepted")
	}
}

func TestReSolveSurvivesUnboundedObjective(t *testing.T) {
	// An unbounded re-objective must fail cleanly and leave the basis
	// usable for subsequent bounded re-solves.
	p := mustProblem(t, []float64{1, 1})
	addCon(t, p, []float64{1, 0}, LE, 4)
	addCon(t, p, []float64{1, 1}, GE, 1)
	s := p.NewSolver()
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReSolve([]float64{0, -1}); !errors.Is(err, ErrUnbounded) {
		t.Fatalf("err = %v, want ErrUnbounded", err)
	}
	sol, err := s.ReSolve([]float64{-1, 1})
	if err != nil {
		t.Fatalf("ReSolve after unbounded: %v", err)
	}
	if !sol.Warm {
		t.Error("basis lost after unbounded re-solve")
	}
	if !approx(sol.X[0], 4, 1e-9) || !approx(sol.X[1], 0, 1e-9) {
		t.Errorf("got %v, want [4 0]", sol.X)
	}
}

func TestReSolveRandomObjectives(t *testing.T) {
	// Random bounded LPs, random objective sequence: every warm re-solve
	// must match a cold solve's optimal value exactly on value and
	// bit-identically on X when the bases coincide.
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(4)
		base := make([]float64, n)
		for i := range base {
			base[i] = math.Round(rng.Float64()*10-5) / 2
		}
		p := mustProblem(t, base)
		nc := 2 + rng.Intn(3)
		for c := 0; c < nc; c++ {
			coeffs := make([]float64, n)
			for i := range coeffs {
				coeffs[i] = math.Round(rng.Float64()*8) / 2
			}
			addCon(t, p, coeffs, LE, math.Round(rng.Float64()*30)+1)
		}
		for i := 0; i < n; i++ {
			coeffs := make([]float64, n)
			coeffs[i] = 1
			addCon(t, p, coeffs, LE, 40)
		}
		s := p.NewSolver()
		if _, err := s.Solve(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for k := 0; k < 5; k++ {
			obj := make([]float64, n)
			for i := range obj {
				obj[i] = math.Round(rng.Float64()*10-4) / 2
			}
			ws, err := s.ReSolve(obj)
			if err != nil {
				t.Fatalf("trial %d obj %d: ReSolve: %v", trial, k, err)
			}
			checkOptimal(t, p, obj, ws, s.Basis())
			cp := mustProblem(t, obj)
			for _, c := range p.cons {
				addCon(t, cp, c.coeffs, c.op, c.rhs)
			}
			cs, err := cp.NewSolver().Solve()
			if err != nil {
				t.Fatalf("trial %d obj %d: cold: %v", trial, k, err)
			}
			if !approx(ws.Objective, cs.Objective, 1e-7) {
				t.Errorf("trial %d obj %d: warm %v cold %v", trial, k, ws.Objective, cs.Objective)
			}
		}
	}
}

func TestSolverReuseAfterNewConstraint(t *testing.T) {
	// A cold Solve on the same Solver rebuilds from the Problem's
	// current constraint set.
	p := mustProblem(t, []float64{-1})
	addCon(t, p, []float64{1}, LE, 10)
	s := p.NewSolver()
	sol, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.X[0], 10, 1e-9) {
		t.Fatalf("x = %v, want 10", sol.X[0])
	}
	addCon(t, p, []float64{1}, LE, 4)
	// NOTE: constraint-set changes require a cold Solve; a fresh solver
	// picks them up.
	sol2, err := p.NewSolver().Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol2.X[0], 4, 1e-9) {
		t.Fatalf("x after new constraint = %v, want 4", sol2.X[0])
	}
}

func TestSolverBasisAccessor(t *testing.T) {
	s := paperLP(4, 0.9, 1e4).NewSolver()
	if s.Basis() != nil {
		t.Error("Basis before Solve must be nil")
	}
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	b := s.Basis()
	if len(b) != 5 { // 4 node rows + 1 sum row
		t.Fatalf("basis len %d, want 5", len(b))
	}
}

func TestReSolveAllocsBounded(t *testing.T) {
	// Warm re-solves reuse every slab; only the Solution and its X
	// escape.
	s := paperLP(16, 0.999, 1e6).NewSolver()
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	objA, objB := paperObj(16, 0.999), paperObj(16, 0.5)
	flip := false
	allocs := testing.AllocsPerRun(20, func() {
		flip = !flip
		obj := objA
		if flip {
			obj = objB
		}
		if _, err := s.ReSolve(obj); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("ReSolve allocated %.0f times, want ≤ 4 (solution only)", allocs)
	}
}

func BenchmarkLPReSolve(b *testing.B) {
	// Warm re-solve cost between adjacent frontier α values — the inner
	// loop of the frontier sweep. Compare with BenchmarkLPSolve.
	for _, p := range []int{16, 64} {
		s := paperLP(p, 0.999, 1e6).NewSolver()
		if _, err := s.Solve(); err != nil {
			b.Fatal(err)
		}
		objA, objB := paperObj(p, 0.999), paperObj(p, 0.995)
		b.Run("P"+strconv.Itoa(p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				obj := objA
				if i&1 == 0 {
					obj = objB
				}
				if _, err := s.ReSolve(obj); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
