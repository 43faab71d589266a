package opt

import (
	"reflect"
	"testing"
)

// Satellite coverage for the frontier canonicalization contract and
// Dominates edge cases.

func TestDominatesTies(t *testing.T) {
	// Within-tolerance differences are ties: equal in one objective and
	// strictly better in the other still dominates, but sub-tolerance
	// "improvements" in both never do.
	base := FrontierPoint{Makespan: 10, DirtyEnergy: 100}
	tieBetter := FrontierPoint{Makespan: 10, DirtyEnergy: 90}
	if !Dominates(tieBetter, base) {
		t.Error("equal makespan + strictly lower energy must dominate")
	}
	if Dominates(base, tieBetter) {
		t.Error("domination is antisymmetric")
	}
	// Differences below the 1e-9 tolerance in both objectives: the
	// points are indistinguishable, neither dominates.
	jitter := FrontierPoint{Makespan: 10 + 1e-12, DirtyEnergy: 100 - 1e-12}
	if Dominates(jitter, base) || Dominates(base, jitter) {
		t.Error("sub-tolerance jitter must not create domination")
	}
	// A tie in one objective plus a sub-tolerance edge in the other is
	// still a full tie.
	almostTie := FrontierPoint{Makespan: 10, DirtyEnergy: 100 - 1e-12}
	if Dominates(almostTie, base) {
		t.Error("sub-tolerance energy edge must not dominate")
	}
	// Just past the tolerance flips it.
	clearlyBetter := FrontierPoint{Makespan: 10, DirtyEnergy: 100 - 1e-6}
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
	a := FrontierPoint{Alpha: 0.0, Makespan: 30, DirtyEnergy: 10}
	m := FrontierPoint{Alpha: 0.5, Makespan: 22, DirtyEnergy: 28} // above segment a–b, still undominated
	b := FrontierPoint{Alpha: 1.0, Makespan: 10, DirtyEnergy: 40}
	d := FrontierPoint{Alpha: 0.6, Makespan: 23, DirtyEnergy: 29} // dominated by m
	for _, p := range []FrontierPoint{a, b} {
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

func TestCanonicalizeFrontier(t *testing.T) {
	p1 := FrontierPoint{Alpha: 0.9, Makespan: 5, DirtyEnergy: 50}
	p2 := FrontierPoint{Alpha: 0.1, Makespan: 20, DirtyEnergy: 10}
	dup := FrontierPoint{Alpha: 0.5, Makespan: 20, DirtyEnergy: 10} // same objectives as p2
	got := CanonicalizeFrontier([]FrontierPoint{p1, dup, p2}, 1e-9)
	if len(got) != 2 {
		t.Fatalf("got %d points, want 2 (adjacent duplicate dropped): %+v", len(got), got)
	}
	if got[0].Alpha != 0.1 || got[1].Alpha != 0.9 {
		t.Errorf("not ascending with lowest-α representative kept: %+v", got)
	}
	// Input must not be mutated (callers hand over shared slices).
	in := []FrontierPoint{p1, p2}
	_ = CanonicalizeFrontier(in, 1e-9)
	if in[0].Alpha != 0.9 {
		t.Error("CanonicalizeFrontier mutated its input")
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
		want, err := Optimize(nodes, total, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plan, want) {
			t.Errorf("α=%v: SizingLP path diverges from Optimize:\n%+v\n%+v", alpha, plan, want)
		}
	}
}
