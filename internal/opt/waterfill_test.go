package opt

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pareto/internal/sampling"
)

// WaterFill solves the α = 1 special case analytically: choose T so
// that Σ_i max(0, (T − c_i)/m_i) = N, the classical water-filling
// balance where every loaded node finishes at exactly T. It requires
// every slope positive and is used to cross-validate the simplex
// solution. Returns the fractional allocation and T.
func WaterFill(nodes []NodeModel, total int) ([]float64, float64, error) {
	if len(nodes) == 0 {
		return nil, 0, errors.New("opt: no nodes")
	}
	if total <= 0 {
		return nil, 0, errors.New("opt: total must be positive")
	}
	for i, n := range nodes {
		if n.Time.Slope <= 0 {
			return nil, 0, fmt.Errorf("opt: WaterFill needs positive slopes; node %d has %v", i, n.Time.Slope)
		}
	}
	capacity := func(T float64) float64 {
		var s float64
		for _, n := range nodes {
			if T > n.Time.Intercept {
				s += (T - n.Time.Intercept) / n.Time.Slope
			}
		}
		return s
	}
	lo, hi := 0.0, 0.0
	for _, n := range nodes {
		if n.Time.Intercept > lo {
			lo = n.Time.Intercept
		}
	}
	hi = lo + 1
	for capacity(hi) < float64(total) {
		hi *= 2
	}
	lo = 0
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		if capacity(mid) < float64(total) {
			lo = mid
		} else {
			hi = mid
		}
	}
	T := (lo + hi) / 2
	x := make([]float64, len(nodes))
	for i, n := range nodes {
		if T > n.Time.Intercept {
			x[i] = (T - n.Time.Intercept) / n.Time.Slope
		}
	}
	// Normalize tiny binary-search residue onto the most-loaded node,
	// so an idle node (intercept above the water level) never receives
	// a sliver of load that would make its intercept the bottleneck.
	var sum float64
	best := 0
	for i, v := range x {
		sum += v
		if v > x[best] {
			best = i
		}
	}
	if diff := float64(total) - sum; diff != 0 {
		x[best] += diff
		if x[best] < 0 {
			x[best] = 0
		}
	}
	return x, T, nil
}

// BenchmarkAblationSimplexVsWaterfill compares the general LP against
// the α=1 analytic water-filling solver (they must agree; the LP costs
// more but handles every α).
func BenchmarkAblationSimplexVsWaterfill(b *testing.B) {
	nodes := make([]NodeModel, 16)
	rng := rand.New(rand.NewSource(5))
	for i := range nodes {
		nodes[i] = NodeModel{
			Time:      sampling.LinearFit{Slope: 0.0001 + rng.Float64()*0.001, Intercept: rng.Float64()},
			DirtyRate: rng.Float64() * 400,
		}
	}
	b.Run("simplex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Optimize(nodes, 1_000_000, 1, Constraints{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("waterfill", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := WaterFill(nodes, 1_000_000); err != nil {
				b.Fatal(err)
			}
		}
	})
}
