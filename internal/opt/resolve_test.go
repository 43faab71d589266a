package opt

import (
	"math/rand"
	"testing"

	"pareto/internal/sampling"
)

// TestSizingUpdatesWarmMatchesCold re-solves one retained sizing basis
// across a chain of model changes (re-profiled slopes/intercepts,
// growing totals) and checks each warm result is bit-identical to a
// cold SizingLP build-and-solve of the same model — with and without
// MinSize floors.
func TestSizingUpdatesWarmMatchesCold(t *testing.T) {
	for _, cons := range []Constraints{{}, {MinSize: 50}} {
		rng := rand.New(rand.NewSource(23))
		const p = 8
		nodes := make([]NodeModel, p)
		for i := range nodes {
			nodes[i] = NodeModel{
				Time:      sampling.LinearFit{Slope: 0.5 + rng.Float64()*3, Intercept: rng.Float64() * 5},
				DirtyRate: 0.2 + rng.Float64(),
			}
		}
		total := 10_000
		alpha := 0.7

		prob, err := SizingLP(nodes, total, alpha, cons)
		if err != nil {
			t.Fatal(err)
		}
		sv := prob.NewSolver()
		if _, err := sv.Solve(); err != nil {
			t.Fatal(err)
		}

		warm := 0
		for step := 0; step < 20; step++ {
			// Drift: some nodes get new fits, the corpus grows.
			for i := range nodes {
				if rng.Intn(3) == 0 {
					nodes[i].Time = sampling.LinearFit{Slope: 0.5 + rng.Float64()*3, Intercept: rng.Float64() * 5}
				}
			}
			total += rng.Intn(500)

			sol, err := sv.ReSolveModel(SizingObjective(nodes, total, alpha), SizingUpdates(nodes, total, cons))
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if sol.Warm {
				warm++
			}

			coldProb, err := SizingLP(nodes, total, alpha, cons)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := coldProb.NewSolver().Solve()
			if err != nil {
				t.Fatalf("step %d cold: %v", step, err)
			}
			for i := range cold.X {
				if sol.X[i] != cold.X[i] {
					t.Fatalf("cons=%+v step %d (warm=%v): X[%d] = %v, cold %v",
						cons, step, sol.Warm, i, sol.X[i], cold.X[i])
				}
			}
		}
		if warm == 0 {
			t.Fatalf("cons=%+v: no warm re-solve in the whole chain", cons)
		}
	}
}

// TestSizingUpdatesRowLayout pins the update row indices to SizingLP's
// constraint order, so a layout change in one cannot silently corrupt
// the other.
func TestSizingUpdatesRowLayout(t *testing.T) {
	nodes := []NodeModel{
		{Time: sampling.LinearFit{Slope: 1, Intercept: 2}, DirtyRate: 1},
		{Time: sampling.LinearFit{Slope: 3, Intercept: 4}, DirtyRate: 1},
	}
	ups := SizingUpdates(nodes, 100, Constraints{})
	if len(ups) != 2 || ups[0].Row != 0 || ups[1].Row != 1 {
		t.Fatalf("floorless rows = %+v, want time rows at 0,1", ups)
	}
	if ups[1].Coeffs[1] != 300 || ups[1].RHS != -4 {
		t.Fatalf("time row 1 = %+v, want slope·total at own column, −intercept RHS", ups[1])
	}
	ups = SizingUpdates(nodes, 100, Constraints{MinSize: 10})
	if len(ups) != 4 || ups[0].Row != 0 || ups[1].Row != 1 || ups[2].Row != 2 || ups[3].Row != 3 {
		t.Fatalf("floored rows = %+v, want interleaved time/floor rows", ups)
	}
	if ups[1].Coeffs[0] != 1 || ups[1].RHS != 0.1 {
		t.Fatalf("floor row 0 = %+v, want unit coeff and MinSize/total", ups[1])
	}
	// MinSize above total/p is capped, matching OptimizeWithConstraints.
	ups = SizingUpdates(nodes, 100, Constraints{MinSize: 90})
	if got := ups[1].RHS; got != 0.5 {
		t.Fatalf("capped floor RHS = %v, want 50/100", got)
	}
}
