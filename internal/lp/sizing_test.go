package lp_test

import (
	"fmt"
	"reflect"
	"testing"

	"pareto/internal/frontier"
	"pareto/internal/lp"
	"pareto/internal/opt"
)

// TestSizingSweepCertifiedAndUnmoved runs the frontier's warm chain
// (opt.SizingLP, one cold solve, then ReSolve per α) over a 41-α ladder
// at four cluster sizes — 64×41 is the benchmark's sweep — and holds
// every point to two standards the solver has no part in: the
// optimality oracle, and the Gauss–Jordan reference extraction, from
// which X may differ by rounding only (1e-12 relative) and not at all
// once rounded to integer partition sizes.
func TestSizingSweepCertifiedAndUnmoved(t *testing.T) {
	const total = 1_000_000
	for _, p := range []int{4, 16, 64, 100} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			nodes := frontier.PaperModels(p)
			prob, err := opt.SizingLP(nodes, total, 0, opt.Constraints{})
			if err != nil {
				t.Fatal(err)
			}
			s := prob.NewSolver()
			for _, alpha := range frontier.UniformAlphas(41) {
				obj := opt.SizingObjective(nodes, total, alpha)
				sol, err := s.ReSolve(obj)
				if err != nil {
					t.Fatalf("α=%v: %v", alpha, err)
				}
				lp.CheckOptimal(t, s, obj, sol)
				ref := lp.CheckAgainstReference(t, s, sol)
				got := opt.RoundToTotal(opt.UnitsFromShares(sol.X[:p], total), total)
				want := opt.RoundToTotal(opt.UnitsFromShares(ref[:p], total), total)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("sizes %v, from the reference extraction %v", got, want)
				}
				if t.Failed() {
					t.Fatalf("the failures above are at α=%v", alpha)
				}
			}
		})
	}
}
