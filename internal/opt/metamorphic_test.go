package opt

import (
	"fmt"
	"testing"

	"pareto/internal/sampling"
)

// distinctNodes are five node models that differ in slope, intercept
// and dirty rate, so no two nodes tie and the sizing LP has one optimum
// at every α.
func distinctNodes() []NodeModel {
	return []NodeModel{
		{Time: sampling.LinearFit{Slope: 1e-5, Intercept: 0.03}, DirtyRate: 200},
		{Time: sampling.LinearFit{Slope: 2.5e-5, Intercept: 0.01}, DirtyRate: 50},
		{Time: sampling.LinearFit{Slope: 1.6e-5, Intercept: 0.07}, DirtyRate: 120},
		{Time: sampling.LinearFit{Slope: 4e-5, Intercept: 0.005}, DirtyRate: 10},
		{Time: sampling.LinearFit{Slope: 0.8e-5, Intercept: 0.11}, DirtyRate: 310},
	}
}

// mapNodes returns a copy of nodes with f applied to each.
func mapNodes(nodes []NodeModel, f func(NodeModel) NodeModel) []NodeModel {
	out := make([]NodeModel, len(nodes))
	for i, n := range nodes {
		out[i] = f(n)
	}
	return out
}

// Metamorphic relations of the sizing LP, each checked at every α of
// DefaultAlphaSweep: transforming the input in a way whose effect on the
// optimum is known must have exactly that effect on the sizes.
func TestOptimizeMetamorphic(t *testing.T) {
	const total = 100_000
	base := distinctNodes()
	optimize := func(nodes []NodeModel, total int, alpha float64) []int {
		t.Helper()
		plan, err := Optimize(nodes, total, alpha, Constraints{})
		if err != nil {
			t.Fatalf("α=%v: %v", alpha, err)
		}
		return plan.Sizes
	}
	scaled := func(f float64) func(alpha float64) error {
		// f is a power of two, so every product is exact: the LP is the
		// same problem in another time unit, and its vertex must not move.
		return func(alpha float64) error {
			want := optimize(base, total, alpha)
			got := optimize(mapNodes(base, func(n NodeModel) NodeModel {
				n.Time.Slope *= f
				n.Time.Intercept *= f
				return n
			}), total, alpha)
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("sizes %v, unscaled %v", got, want)
				}
			}
			return nil
		}
	}
	for _, rel := range []struct {
		name  string
		check func(alpha float64) error
	}{
		{"permuting the nodes permutes the sizes", func(alpha float64) error {
			want := optimize(base, total, alpha)
			for _, perm := range [][]int{{4, 3, 2, 1, 0}, {1, 2, 3, 4, 0}, {2, 0, 4, 1, 3}} {
				nodes := make([]NodeModel, len(perm))
				for i, from := range perm {
					nodes[i] = base[from]
				}
				got := optimize(nodes, total, alpha)
				for i, from := range perm {
					if got[i] != want[from] {
						return fmt.Errorf("perm %v: sizes %v, unpermuted %v", perm, got, want)
					}
				}
			}
			return nil
		}},
		{"slopes and intercepts ×2 leave the sizes", scaled(2)},
		{"slopes and intercepts ×0.5 leave the sizes", scaled(0.5)},
		{"identical nodes get the equal split", func(alpha float64) error {
			for _, n := range base {
				same := mapNodes(base, func(NodeModel) NodeModel { return n })
				for _, s := range optimize(same, total, alpha) {
					if d := s - total/len(same); d < -1 || d > 1 {
						return fmt.Errorf("%d identical nodes (%+v): size %d, equal split %d", len(same), n, s, total/len(same))
					}
				}
			}
			return nil
		}},
		{"doubling total doubles the sizes", func(alpha float64) error {
			// An intercept is seconds that do not grow with the data, so
			// only intercept-free models keep their shares as total grows:
			// each size is then within one unit of total × share.
			flat := mapNodes(base, func(n NodeModel) NodeModel {
				n.Time.Intercept = 0
				return n
			})
			once, twice := optimize(flat, total, alpha), optimize(flat, 2*total, alpha)
			for i := range once {
				if d := twice[i] - 2*once[i]; d < -2 || d > 2 {
					return fmt.Errorf("sizes %v at total %d, %v at %d", twice, 2*total, once, total)
				}
			}
			return nil
		}},
	} {
		for _, alpha := range DefaultAlphaSweep() {
			if err := rel.check(alpha); err != nil {
				t.Errorf("%s, α=%v: %v", rel.name, alpha, err)
			}
		}
	}
	// The relations are only worth checking if α moves the plan.
	if first, last := optimize(base, total, 1), optimize(base, total, 0); fmt.Sprint(first) == fmt.Sprint(last) {
		t.Errorf("α=1 and α=0 size the nodes alike (%v): the fixture has no trade-off", first)
	}
}
