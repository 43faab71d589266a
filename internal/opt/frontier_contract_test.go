package opt

import (
	"reflect"
	"testing"
)

// Dominates edge cases, and the sizing LP builder's agreement with
// Optimize.

func TestDominatesTies(t *testing.T) {
	// Within-tolerance differences are ties: equal in one objective and
	// strictly better in the other still dominates, but sub-tolerance
	// "improvements" in both never do.
	base := &Plan{Makespan: 10, DirtyEnergy: 100}
	tieBetter := &Plan{Makespan: 10, DirtyEnergy: 90}
	if !Dominates(tieBetter, base) {
		t.Error("equal makespan + strictly lower energy must dominate")
	}
	if Dominates(base, tieBetter) {
		t.Error("domination is antisymmetric")
	}
	// Differences below the 1e-9 tolerance in both objectives: the
	// points are indistinguishable, neither dominates.
	jitter := &Plan{Makespan: 10 + 1e-12, DirtyEnergy: 100 - 1e-12}
	if Dominates(jitter, base) || Dominates(base, jitter) {
		t.Error("sub-tolerance jitter must not create domination")
	}
	// A tie in one objective plus a sub-tolerance edge in the other is
	// still a full tie.
	almostTie := &Plan{Makespan: 10, DirtyEnergy: 100 - 1e-12}
	if Dominates(almostTie, base) {
		t.Error("sub-tolerance energy edge must not dominate")
	}
	// Just past the tolerance flips it.
	clearlyBetter := &Plan{Makespan: 10, DirtyEnergy: 100 - 1e-6}
	if !Dominates(clearlyBetter, base) {
		t.Error("supra-tolerance improvement must dominate")
	}
}

func TestDominatesNonConvexProfile(t *testing.T) {
	// A synthetic non-convex profile (cf. the bi-objective
	// workload-distribution results in PAPERS.md): point m sits above
	// the segment joining its neighbors but is NOT dominated by either —
	// non-convexity alone is not domination, so a correct filter must
	// keep it. Point d, worse than m in both objectives, must go.
	a := &Plan{Alpha: 0.0, Makespan: 30, DirtyEnergy: 10}
	m := &Plan{Alpha: 0.5, Makespan: 22, DirtyEnergy: 28} // above segment a–b, still undominated
	b := &Plan{Alpha: 1.0, Makespan: 10, DirtyEnergy: 40}
	d := &Plan{Alpha: 0.6, Makespan: 23, DirtyEnergy: 29} // dominated by m
	for _, p := range []*Plan{a, b} {
		if Dominates(p, m) {
			t.Errorf("non-convex knee wrongly dominated by %+v", p)
		}
	}
	if !Dominates(m, d) {
		t.Error("m must dominate d (better in both objectives)")
	}
	if Dominates(d, a) || Dominates(d, b) {
		t.Error("dominated point cannot dominate the extremes")
	}
}

func TestSizingLPMatchesOptimize(t *testing.T) {
	// The exported LP builder + objective must reproduce Optimize
	// bit-for-bit — the contract internal/frontier's warm sweep is
	// built on.
	nodes := paperNodes()
	total := 100000
	for _, alpha := range DefaultAlphaSweep() {
		prob, err := SizingLP(nodes, total, alpha, Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		sol, err := prob.NewSolver().Solve()
		if err != nil {
			t.Fatalf("α=%v: %v", alpha, err)
		}
		plan := PlanFromX(nodes, total, alpha, UnitsFromShares(sol.X[:len(nodes)], total))
		want, err := Optimize(nodes, total, alpha, Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plan, want) {
			t.Errorf("α=%v: SizingLP path diverges from Optimize:\n%+v\n%+v", alpha, plan, want)
		}
	}
}
