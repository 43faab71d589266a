package opt

import (
	"math"
	"math/rand"
	"testing"

	"pareto/internal/sampling"
)

// paperNodes models the paper's 4-type cluster: relative speeds
// 4x/3x/2x/1x (slope inversely proportional to speed) and dirty rates
// derived from the 440/345/250/155 W draws minus some green supply.
func paperNodes() []NodeModel {
	return []NodeModel{
		{Time: sampling.LinearFit{Slope: 0.001, Intercept: 2}, DirtyRate: 340},
		{Time: sampling.LinearFit{Slope: 0.001333, Intercept: 2}, DirtyRate: 245},
		{Time: sampling.LinearFit{Slope: 0.002, Intercept: 2}, DirtyRate: 200},
		{Time: sampling.LinearFit{Slope: 0.004, Intercept: 2}, DirtyRate: 55},
	}
}

func TestOptimizeValidation(t *testing.T) {
	nodes := paperNodes()
	if _, err := Optimize(nil, 100, 1, Constraints{}); err == nil {
		t.Error("no nodes accepted")
	}
	if _, err := Optimize(nodes, 0, 1, Constraints{}); err == nil {
		t.Error("zero total accepted")
	}
	if _, err := Optimize(nodes, 100, 1.5, Constraints{}); err == nil {
		t.Error("alpha > 1 accepted")
	}
	if _, err := Optimize(nodes, 100, -0.1, Constraints{}); err == nil {
		t.Error("alpha < 0 accepted")
	}
	bad := []NodeModel{{Time: sampling.LinearFit{Slope: -1}}}
	if _, err := Optimize(bad, 100, 1, Constraints{}); err == nil {
		t.Error("negative slope accepted")
	}
	bad2 := []NodeModel{{Time: sampling.LinearFit{Slope: 1}, DirtyRate: -3}}
	if _, err := Optimize(bad2, 100, 1, Constraints{}); err == nil {
		t.Error("negative dirty rate accepted")
	}
	for name, n := range map[string]NodeModel{
		"NaN intercept":      {Time: sampling.LinearFit{Slope: 1, Intercept: math.NaN()}},
		"+Inf intercept":     {Time: sampling.LinearFit{Slope: 1, Intercept: math.Inf(1)}},
		"-Inf intercept":     {Time: sampling.LinearFit{Slope: 1, Intercept: math.Inf(-1)}},
		"+Inf slope":         {Time: sampling.LinearFit{Slope: math.Inf(1)}},
		"-Inf slope":         {Time: sampling.LinearFit{Slope: math.Inf(-1)}},
		"+Inf dirty rate":    {Time: sampling.LinearFit{Slope: 1}, DirtyRate: math.Inf(1)},
		"-Inf dirty rate":    {Time: sampling.LinearFit{Slope: 1}, DirtyRate: math.Inf(-1)},
		"NaN dirty rate":     {Time: sampling.LinearFit{Slope: 1}, DirtyRate: math.NaN()},
		"NaN slope":          {Time: sampling.LinearFit{Slope: math.NaN()}},
		"negative intercept": {Time: sampling.LinearFit{Slope: 1, Intercept: -1}},
	} {
		nodes := append(paperNodes(), n)
		if _, err := Optimize(nodes, 100, 0.5, Constraints{}); err == nil {
			t.Errorf("%s accepted", name)
		}
		if err := ValidateModels(nodes, 100); err == nil {
			t.Errorf("%s passes ValidateModels", name)
		}
	}
}

func TestOptimizeSizesSumToTotal(t *testing.T) {
	nodes := paperNodes()
	for _, total := range []int{1, 7, 100, 99999, 1234567} {
		for _, alpha := range []float64{1, 0.999, 0.9, 0.5, 0} {
			plan, err := Optimize(nodes, total, alpha, Constraints{})
			if err != nil {
				t.Fatalf("total %d alpha %v: %v", total, alpha, err)
			}
			sum := 0
			for _, s := range plan.Sizes {
				if s < 0 {
					t.Fatalf("negative size %d", s)
				}
				sum += s
			}
			if sum != total {
				t.Fatalf("total %d alpha %v: sizes sum %d", total, alpha, sum)
			}
		}
	}
}

func TestHetAwareMatchesWaterFill(t *testing.T) {
	// At α = 1 the LP must agree with the analytic water-filling
	// solution: everyone loaded finishes at the same time T.
	nodes := paperNodes()
	total := 500000
	plan, err := Optimize(nodes, total, 1, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	x, T, err := WaterFill(nodes, total)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.Makespan-T)/T > 1e-3 {
		t.Errorf("LP makespan %v vs water-fill %v", plan.Makespan, T)
	}
	for i := range x {
		if math.Abs(plan.X[i]-x[i]) > float64(total)*1e-3+1 {
			t.Errorf("node %d: LP %v vs water-fill %v", i, plan.X[i], x[i])
		}
	}
}

func TestHetAwareLoadsFasterNodesMore(t *testing.T) {
	nodes := paperNodes()
	plan, err := Optimize(nodes, 100000, 1, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(plan.Sizes); i++ {
		if plan.Sizes[i] > plan.Sizes[i-1] {
			t.Errorf("slower node %d got %d > faster node %d's %d",
				i, plan.Sizes[i], i-1, plan.Sizes[i-1])
		}
	}
	// The 4x node should get roughly 4x the 1x node's share.
	ratio := float64(plan.Sizes[0]) / float64(plan.Sizes[3])
	if ratio < 3 || ratio > 5 {
		t.Errorf("speed-4x/1x share ratio %v, want ≈4", ratio)
	}
}

func TestEnergyAwareShiftsLoadToGreenNodes(t *testing.T) {
	nodes := paperNodes()
	hetAware, err := Optimize(nodes, 100000, 1, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	greenish, err := Optimize(nodes, 100000, 0.9, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	// Node 3 (lowest k_i) must receive more load as α drops.
	if greenish.Sizes[3] <= hetAware.Sizes[3] {
		t.Errorf("α=0.9 gave green node %d ≤ α=1's %d", greenish.Sizes[3], hetAware.Sizes[3])
	}
	if greenish.DirtyEnergy >= hetAware.DirtyEnergy {
		t.Errorf("α=0.9 energy %v not below α=1's %v", greenish.DirtyEnergy, hetAware.DirtyEnergy)
	}
	if greenish.Makespan < hetAware.Makespan {
		t.Errorf("α=0.9 makespan %v below α=1's %v — impossible", greenish.Makespan, hetAware.Makespan)
	}
}

func TestAlphaZeroPilesOnGreenestNode(t *testing.T) {
	// The paper observes that below α≈0.9 the optimizer puts nearly
	// all payload on the lowest-dirty-rate machine.
	nodes := paperNodes()
	plan, err := Optimize(nodes, 10000, 0, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Sizes[3] != 10000 {
		t.Errorf("α=0 sizes %v, want all on node 3 (cheapest energy·slope)", plan.Sizes)
	}
}

func TestEqualSizedBaselineIsDominated(t *testing.T) {
	// The stratified baseline (equal sizes) must sit above the
	// frontier, as in Fig 5: some frontier point dominates it.
	nodes := paperNodes()
	total := 100000
	per := total / len(nodes)
	x := make([]float64, len(nodes))
	for i := range x {
		x[i] = float64(per)
	}
	base := &Plan{Makespan: makespanOf(nodes, x), DirtyEnergy: energyOf(nodes, x)}
	dominated := false
	for _, a := range DefaultAlphaSweep() {
		plan, err := Optimize(nodes, total, a, Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		if Dominates(plan, base) {
			dominated = true
			break
		}
	}
	if !dominated {
		t.Errorf("equal-size baseline (v=%v, E=%v) not dominated by any frontier point",
			base.Makespan, base.DirtyEnergy)
	}
}

func TestWaterFillValidation(t *testing.T) {
	if _, _, err := WaterFill(nil, 10); err == nil {
		t.Error("no nodes accepted")
	}
	if _, _, err := WaterFill(paperNodes(), 0); err == nil {
		t.Error("zero total accepted")
	}
	zero := []NodeModel{{Time: sampling.LinearFit{Slope: 0, Intercept: 1}}}
	if _, _, err := WaterFill(zero, 10); err == nil {
		t.Error("zero slope accepted")
	}
}

func TestWaterFillConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		p := 2 + rng.Intn(8)
		nodes := make([]NodeModel, p)
		for i := range nodes {
			nodes[i] = NodeModel{
				Time:      sampling.LinearFit{Slope: 0.0001 + rng.Float64()*0.01, Intercept: rng.Float64() * 10},
				DirtyRate: rng.Float64() * 400,
			}
		}
		total := 1000 + rng.Intn(100000)
		x, T, err := WaterFill(nodes, total)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for i, v := range x {
			if v < 0 {
				t.Fatalf("negative allocation %v", v)
			}
			sum += v
			// Every loaded node finishes by T (within tolerance).
			if v > 0 {
				ft := nodes[i].Time.Predict(v)
				if ft > T*(1+1e-6)+1e-6 {
					t.Fatalf("node %d finishes at %v > T=%v", i, ft, T)
				}
			}
		}
		if math.Abs(sum-float64(total)) > 1e-3 {
			t.Fatalf("allocations sum %v, want %d", sum, total)
		}
	}
}

func TestWaterFillAgainstLPRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 30; trial++ {
		p := 2 + rng.Intn(6)
		nodes := make([]NodeModel, p)
		for i := range nodes {
			// Intercepts kept well below the water level: when an idle
			// node's intercept exceeds the balanced finish time, the
			// paper's LP (v ≥ c_i for every node, loaded or not)
			// legitimately diverges from pure water-filling.
			nodes[i] = NodeModel{
				Time:      sampling.LinearFit{Slope: 0.0001 + rng.Float64()*0.005, Intercept: rng.Float64() * 0.3},
				DirtyRate: rng.Float64() * 400,
			}
		}
		total := 10000 + rng.Intn(500000)
		plan, err := Optimize(nodes, total, 1, Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		_, T, err := WaterFill(nodes, total)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(plan.Makespan-T)/T > 1e-3 {
			t.Errorf("trial %d: LP makespan %v, water-fill %v", trial, plan.Makespan, T)
		}
	}
}

func TestRoundToTotal(t *testing.T) {
	cases := []struct {
		x     []float64
		total int
	}{
		{[]float64{1.5, 2.5, 3.0}, 7},
		{[]float64{0.3, 0.3, 0.4}, 1},
		{[]float64{10, 0, 0}, 10},
		{[]float64{0, 0, 0}, 5},
		{[]float64{-0.5, 3.2, 2.3}, 5},
		{[]float64{2.9, 2.9, 2.9}, 8}, // fractional sum 8.7 → floor+remainders
		{[]float64{3.5, 3.5}, 6},      // fractional sum exceeds total after ceil
	}
	for i, c := range cases {
		sizes := RoundToTotal(c.x, c.total)
		sum := 0
		for _, s := range sizes {
			if s < 0 {
				t.Errorf("case %d: negative size", i)
			}
			sum += s
		}
		if sum != c.total {
			t.Errorf("case %d: sum %d, want %d (sizes %v)", i, sum, c.total, sizes)
		}
	}
}

func TestDominates(t *testing.T) {
	a := &Plan{Makespan: 1, DirtyEnergy: 1}
	b := &Plan{Makespan: 2, DirtyEnergy: 2}
	c := &Plan{Makespan: 0.5, DirtyEnergy: 3}
	if !Dominates(a, b) {
		t.Error("a must dominate b")
	}
	if Dominates(b, a) {
		t.Error("b cannot dominate a")
	}
	if Dominates(a, c) || Dominates(c, a) {
		t.Error("a and c are incomparable")
	}
	if Dominates(a, a) {
		t.Error("a point cannot dominate itself")
	}
}

func TestOptimizeWithConstraintsMinSize(t *testing.T) {
	nodes := paperNodes()
	total := 100000
	plan, err := Optimize(nodes, total, 1, Constraints{MinSize: 10000})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, s := range plan.Sizes {
		if s < 10000 {
			t.Errorf("size %d below floor", s)
		}
		sum += s
	}
	if sum != total {
		t.Errorf("sum %d", sum)
	}
	// Negative floor rejected; oversized floor capped at total/p.
	if _, err := Optimize(nodes, total, 1, Constraints{MinSize: -1}); err == nil {
		t.Error("negative MinSize accepted")
	}
	plan, err = Optimize(nodes, total, 1, Constraints{MinSize: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range plan.Sizes {
		if s != total/len(nodes) {
			t.Errorf("capped floor should force equal sizes, got %v", plan.Sizes)
		}
	}
	// Floor must not change the unconstrained solution when inactive.
	free, err := Optimize(nodes, total, 1, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := Optimize(nodes, total, 1, Constraints{MinSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(free.Makespan-tiny.Makespan) > 1e-6 {
		t.Errorf("inactive floor changed makespan %v vs %v", free.Makespan, tiny.Makespan)
	}
}

func TestConstrainedEnergyObjectiveStillTrades(t *testing.T) {
	nodes := paperNodes()
	total := 100000
	het, err := Optimize(nodes, total, 1, Constraints{MinSize: 5000})
	if err != nil {
		t.Fatal(err)
	}
	hea, err := Optimize(nodes, total, 0.9, Constraints{MinSize: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if hea.DirtyEnergy > het.DirtyEnergy {
		t.Errorf("constrained energy-aware dirty %v above time-only %v", hea.DirtyEnergy, het.DirtyEnergy)
	}
	if hea.Sizes[3] < 5000 {
		t.Errorf("floor violated under energy objective: %v", hea.Sizes)
	}
}
