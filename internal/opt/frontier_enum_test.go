package opt_test

import (
	"reflect"
	"testing"

	"pareto/internal/frontier"
	"pareto/internal/opt"
	"pareto/internal/sampling"
)

// Frontier properties of this package's sizing LP — monotone
// objectives in α, no mutual domination (Dominates), completeness of
// the exact vertex set — checked through the enumerators that produce
// frontiers, internal/frontier's Sweep and Exact. Those are pinned
// bit-identical to the cold per-α reference in internal/frontier's own
// tests, where the canonical order, the SamePoint dedup and Exact's
// solve bound are tested too.

func sweep(t *testing.T, nodes []opt.NodeModel, total int, alphas []float64) []frontier.Point {
	t.Helper()
	res, err := frontier.Sweep(nodes, total, frontier.Config{Alphas: alphas})
	if err != nil {
		t.Fatal(err)
	}
	return res.Points
}

func exact(t *testing.T, nodes []opt.NodeModel, total int) []frontier.Point {
	t.Helper()
	res, err := frontier.Exact(nodes, total, frontier.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Points
}

func TestFrontierMonotonicity(t *testing.T) {
	nodes := opt.PaperNodes()
	pts := sweep(t, nodes, 200000, opt.DefaultAlphaSweep())
	// Canonical output: ascending α, adjacent duplicates collapsed — so
	// at most one point per sweep value, strictly increasing α, and
	// every surviving point distinct from its neighbor.
	if len(pts) < 2 || len(pts) > len(opt.DefaultAlphaSweep()) {
		t.Fatalf("%d points from a %d-value sweep", len(pts), len(opt.DefaultAlphaSweep()))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Alpha <= pts[i-1].Alpha {
			t.Fatalf("α not ascending at %d: %v after %v", i, pts[i].Alpha, pts[i-1].Alpha)
		}
		if frontier.SamePoint(pts[i-1], pts[i], 1e-9) {
			t.Errorf("adjacent duplicate survived dedup at α=%v", pts[i].Alpha)
		}
	}
	// As α increases: makespan non-increasing, energy non-decreasing.
	for i := 1; i < len(pts); i++ {
		if pts[i].Makespan > pts[i-1].Makespan+1e-6 {
			t.Errorf("makespan increased with α at α=%v: %v → %v",
				pts[i].Alpha, pts[i-1].Makespan, pts[i].Makespan)
		}
		if pts[i].DirtyEnergy < pts[i-1].DirtyEnergy-1e-6 {
			t.Errorf("energy decreased with α at α=%v: %v → %v",
				pts[i].Alpha, pts[i-1].DirtyEnergy, pts[i].DirtyEnergy)
		}
	}
	// No point on the frontier may dominate another (Pareto property).
	for i := range pts {
		for j := range pts {
			if i != j && opt.Dominates(pts[i].Plan, pts[j].Plan) && opt.Dominates(pts[j].Plan, pts[i].Plan) {
				t.Errorf("mutual domination between %d and %d", i, j)
			}
		}
	}
}

func TestFrontierOrderIndependent(t *testing.T) {
	// The canonical ordering contract: the same α set in any input
	// order yields deep-equal output.
	nodes := opt.PaperNodes()
	desc := opt.DefaultAlphaSweep()
	asc := make([]float64, len(desc))
	for i, a := range desc {
		asc[len(desc)-1-i] = a
	}
	fromDesc := sweep(t, nodes, 150000, desc)
	fromAsc := sweep(t, nodes, 150000, asc)
	if !reflect.DeepEqual(fromDesc, fromAsc) {
		t.Error("Frontier output depends on input α order")
	}
	for i := 1; i < len(fromDesc); i++ {
		if fromDesc[i].Alpha <= fromDesc[i-1].Alpha {
			t.Fatalf("not ascending at %d", i)
		}
	}
}

func TestExactFrontier(t *testing.T) {
	nodes := opt.PaperNodes()
	total := 200000
	pts := exact(t, nodes, total)
	if len(pts) < 2 {
		t.Fatalf("frontier has %d points, want ≥ 2 (both extremes)", len(pts))
	}
	// Ordered by α: makespan non-increasing as α rises, energy
	// non-decreasing; all points mutually non-dominated.
	for i := 1; i < len(pts); i++ {
		if pts[i].Alpha <= pts[i-1].Alpha {
			t.Errorf("alphas not ascending at %d", i)
		}
		if pts[i].Makespan > pts[i-1].Makespan+1e-6 {
			t.Errorf("makespan rose with alpha at %d", i)
		}
		if pts[i].DirtyEnergy < pts[i-1].DirtyEnergy-1e-6 {
			t.Errorf("energy fell with alpha at %d", i)
		}
	}
	for i := range pts {
		for j := range pts {
			if i != j && opt.Dominates(pts[i].Plan, pts[j].Plan) {
				t.Errorf("frontier point %d dominates point %d", i, j)
			}
		}
	}
	// Every sampled sweep point must be weakly dominated by (or equal
	// to) some exact frontier point — the exact set is complete.
	for _, s := range sweep(t, nodes, total, opt.DefaultAlphaSweep()) {
		ok := false
		for _, p := range pts {
			if p.Makespan <= s.Makespan+1e-6 && p.DirtyEnergy <= s.DirtyEnergy+1e-6 {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("sweep point α=%v (t=%v e=%v) not covered by exact frontier",
				s.Alpha, s.Makespan, s.DirtyEnergy)
		}
	}
}

func TestExactFrontierDegenerate(t *testing.T) {
	// All nodes identical in both objectives: the frontier is a single
	// point.
	nodes := []opt.NodeModel{
		{Time: sampling.LinearFit{Slope: 0.001}, DirtyRate: 100},
		{Time: sampling.LinearFit{Slope: 0.001}, DirtyRate: 100},
	}
	if pts := exact(t, nodes, 1000); len(pts) != 1 {
		t.Errorf("degenerate frontier has %d points: %+v", len(pts), pts)
	}
}
