package frontier

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"pareto/internal/opt"
	"pareto/internal/sampling"
	"pareto/internal/telemetry"
)

// denseAlphas is a 41-value ladder matching the benchmark scale: the
// default sweep's shape (dense near 1) extended with uniform coverage.
func denseAlphas() []float64 {
	out := UniformAlphas(31)
	out = append(out, 0.905, 0.95, 0.975, 0.99, 0.995, 0.999, 0.9995, 0.9999, 0.99995, 0.99999)
	return out
}

func workerCounts() []int {
	return []int{1, 4, runtime.NumCPU()}
}

func TestSweepEquivalentToColdFrontier(t *testing.T) {
	// The tentpole guarantee: warm-started parallel sweeps produce
	// points whose 2-D fields are deep-equal (bit-identical floats included) to the
	// cold-solve reference (cold_test.go), at every worker count. Run under
	// -race this also exercises the chunked chain scheduling.
	for _, p := range []int{8, 16, 64} {
		nodes := PaperModels(p)
		total := 1_000_000
		alphas := denseAlphas()
		cold, err := coldFrontier(nodes, total, alphas)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerCounts() {
			res, err := Sweep(nodes, total, Config{Alphas: alphas, Workers: w})
			if err != nil {
				t.Fatalf("p=%d workers=%d: %v", p, w, err)
			}
			if len(res.Points) != len(cold) {
				t.Fatalf("p=%d workers=%d: %d points, cold has %d", p, w, len(res.Points), len(cold))
			}
			for i := range cold {
				if !reflect.DeepEqual(twoD(res.Points[i]), cold[i]) {
					t.Fatalf("p=%d workers=%d: point %d diverges from cold solve:\nwarm: %+v\ncold: %+v",
						p, w, i, twoD(res.Points[i]), cold[i])
				}
			}
		}
	}
}

// randomModels draws p node models with continuous slopes and
// intercepts; about a quarter of the nodes run on green power alone
// (dirty rate 0). Every profile is distinct: identical nodes tie in the
// sizing LP, which omits the k_i·c_i a loaded node adds, so a whole
// face of share splits is optimal and a warm and a cold solve may stop
// on different alternate optima of it.
func randomModels(rng *rand.Rand, p int) []opt.NodeModel {
	nodes := make([]opt.NodeModel, p)
	for i := range nodes {
		nodes[i] = opt.NodeModel{Time: sampling.LinearFit{
			Slope:     1e-6 * (0.5 + 4*rng.Float64()),
			Intercept: 0.2 * rng.Float64(),
		}}
		if rng.Intn(4) != 0 {
			nodes[i].DirtyRate = 50 + 400*rng.Float64()
		}
	}
	return nodes
}

// TestExactEquivalentToColdExactFrontier holds the dichotomic Exact to
// two independent references: each point is what a cold solve at its
// own α returns, and the vertices are those the cold α bisection of
// cold_test.go finds, in the same order. It also holds Exact to its
// cost: every solve finds a vertex or closes an edge between two.
func TestExactEquivalentToColdExactFrontier(t *testing.T) {
	type input struct {
		name  string
		nodes []opt.NodeModel
		total int
	}
	var inputs []input
	for _, p := range []int{4, 8, 16, 64} {
		inputs = append(inputs, input{fmt.Sprintf("paper%d", p), PaperModels(p), 1_000_000})
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 100; i++ {
		inputs = append(inputs, input{fmt.Sprintf("random%d", i), randomModels(rng, 2+rng.Intn(11)), 10_000 + rng.Intn(990_000)})
	}
	for _, in := range inputs {
		res, err := Exact(in.nodes, in.total, Config{})
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		for i, pt := range res.Points {
			cold, err := coldPoint(in.nodes, in.total, pt.Alpha)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(twoD(pt), cold) {
				t.Fatalf("%s: point %d diverges from a cold solve at its α:\nwarm: %+v\ncold: %+v", in.name, i, twoD(pt), cold)
			}
		}
		ref, err := coldExactFrontier(in.nodes, in.total, 1e-6)
		if err != nil {
			t.Fatalf("%s: cold bisection: %v", in.name, err)
		}
		if len(res.Points) != len(ref) {
			t.Fatalf("%s: %d points, cold bisection has %d", in.name, len(res.Points), len(ref))
		}
		for i, pt := range res.Points {
			if pt.Makespan != ref[i].Makespan || pt.DirtyEnergy != ref[i].DirtyEnergy || !reflect.DeepEqual(pt.Plan.Sizes, ref[i].Plan.Sizes) {
				t.Fatalf("%s: point %d (α=%v) differs from the cold bisection's (α=%v)", in.name, i, pt.Alpha, ref[i].Alpha)
			}
		}
		if bound := max(2, 2*len(res.Points)-1); res.Stats.Solves > bound {
			t.Errorf("%s: %d solves for %d points, want at most %d", in.name, res.Stats.Solves, len(res.Points), bound)
		}
	}
}

func TestSweepWarmStartsPayOff(t *testing.T) {
	// A single-worker sweep cold-solves only the first α; everything
	// else must ride the retained basis, and the warm pivots must be a
	// small fraction of the total.
	nodes := PaperModels(64)
	res, err := Sweep(nodes, 1_000_000, Config{Alphas: denseAlphas(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Solves != len(dedupAlphas(denseAlphas())) {
		t.Errorf("solves = %d, want one per distinct α (%d)", st.Solves, len(dedupAlphas(denseAlphas())))
	}
	if st.WarmSolves != st.Solves-1 {
		t.Errorf("warm solves = %d of %d: a 1-worker chain must cold-solve exactly once", st.WarmSolves, st.Solves)
	}
	coldPivots := st.Pivots - st.WarmPivots
	if st.WarmSolves > 0 && st.WarmPivots >= coldPivots*st.WarmSolves {
		t.Errorf("warm pivots %d over %d solves vs %d cold pivots: warm starts are not cheaper",
			st.WarmPivots, st.WarmSolves, coldPivots)
	}
	for i, p := range res.Points {
		if p.Pivots < 0 {
			t.Errorf("point %d has negative pivot count", i)
		}
	}
}

func TestSweepOneColdSolvePerChain(t *testing.T) {
	// A chain's first solve is its only cold one, so cold solves count
	// chains: one for any ladder of at most minChainAlphas values no
	// matter how many workers are offered (the 41-α request a default
	// GOMAXPROCS-wide service gets must not pay a cold solve per core),
	// and never more than Workers above that.
	nodes := PaperModels(16)
	for _, n := range []int{2, 11, 41, minChainAlphas, 2*minChainAlphas - 1, 2 * minChainAlphas, 5*minChainAlphas + 7} {
		for _, w := range []int{0, 1, 2, 3, 16} {
			res, err := Sweep(nodes, 1_000_000, Config{Alphas: UniformAlphas(n), Workers: w})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, w, err)
			}
			cold := res.Stats.Solves - res.Stats.WarmSolves
			if res.Stats.Solves != n {
				t.Errorf("n=%d workers=%d: %d solves", n, w, res.Stats.Solves)
			}
			offered := w
			if w <= 0 {
				offered = runtime.GOMAXPROCS(0)
			}
			if want := min(offered, max(1, n/minChainAlphas)); cold != want {
				t.Errorf("n=%d workers=%d: %d cold solves, want %d", n, w, cold, want)
			}
		}
	}
}

func dedupAlphas(alphas []float64) []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, a := range alphas {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// TestDominanceFilterHandBuiltPoints: the filter flags exactly the
// points whose objective vector another point's dominates — ties,
// trade-offs and sub-tolerance differences are not domination — and
// Frontier() returns the rest in order.
func TestDominanceFilterHandBuiltPoints(t *testing.T) {
	vecs := []struct {
		obj       []float64
		dominated bool
	}{
		{[]float64{1, 5, 3}, false},         // fastest
		{[]float64{2, 4, 3}, false},         // trades makespan for dirty energy
		{[]float64{2, 5, 4}, true},          // the fastest is no worse anywhere and better on two axes
		{[]float64{1, 5, 3}, false},         // ties the fastest: neither dominates
		{[]float64{9, 0, 9}, false},         // all on the green node: slowest, no dirty energy
		{[]float64{9, 0, 9 + 1e-12}, false}, // a sub-tolerance difference is a tie
		{[]float64{10, 0, 10}, true},        // green too, but beaten on makespan and node-seconds
	}
	pts := make([]Point, len(vecs))
	for i, v := range vecs {
		pts[i] = Point{Alpha: float64(i), Objectives: v.obj}
	}
	if got := markDominated(pts); got != 2 {
		t.Errorf("markDominated flagged %d points, want 2", got)
	}
	for i, v := range vecs {
		if pts[i].Dominated != v.dominated {
			t.Errorf("point %d %v: dominated = %v, want %v", i, v.obj, pts[i].Dominated, v.dominated)
		}
	}
	var kept []float64
	for _, p := range (&Result{Points: pts}).Frontier() {
		kept = append(kept, p.Alpha)
	}
	if want := []float64{0, 1, 3, 4, 5}; !reflect.DeepEqual(kept, want) {
		t.Errorf("Frontier() kept α %v, want %v", kept, want)
	}
}

// TestCanonicalizeFrontier: the canonical form Sweep and Exact return
// is ascending α with adjacent objective-space duplicates collapsed to
// their lowest-α representative, whatever order the points came in.
func TestCanonicalizeFrontier(t *testing.T) {
	p1 := Point{Alpha: 0.9, Makespan: 5, DirtyEnergy: 50}
	p2 := Point{Alpha: 0.1, Makespan: 20, DirtyEnergy: 10}
	dup := Point{Alpha: 0.5, Makespan: 20, DirtyEnergy: 10} // same objectives as p2
	got := canonicalize([]Point{p1, dup, p2})
	if len(got) != 2 {
		t.Fatalf("got %d points, want 2 (adjacent duplicate dropped): %+v", len(got), got)
	}
	if got[0].Alpha != 0.1 || got[1].Alpha != 0.9 {
		t.Errorf("not ascending with lowest-α representative kept: %+v", got)
	}
	// Points that differ by less than tol relative coincide; by more,
	// they do not.
	if !SamePoint(p2, Point{Makespan: 20 * (1 + 1e-10), DirtyEnergy: 10}, 1e-9) {
		t.Error("sub-tolerance difference kept apart")
	}
	if SamePoint(p2, Point{Makespan: 20 * (1 + 1e-8), DirtyEnergy: 10}, 1e-9) {
		t.Error("supra-tolerance difference collapsed")
	}
}

func TestSweepDefaultsAndValidation(t *testing.T) {
	nodes := PaperModels(4)
	// Zero config: DefaultAlphaSweep.
	res, err := Sweep(nodes, 10_000, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("empty result from default sweep")
	}
	if got := len(res.Points[0].Objectives); got != len(objectiveNames) {
		t.Errorf("objective vector has %d entries, want %d", got, len(objectiveNames))
	}
	if _, err := Sweep(nil, 100, Config{}); err == nil {
		t.Error("nil nodes accepted")
	}
	if _, err := Sweep(nodes, 0, Config{}); err == nil {
		t.Error("zero total accepted")
	}
	if _, err := Sweep(nodes, 100, Config{Alphas: []float64{-0.1}}); err == nil {
		t.Error("out-of-range alpha accepted")
	}
}

func TestExactDegenerateSinglePoint(t *testing.T) {
	nodes := []opt.NodeModel{
		{Time: sampling.LinearFit{Slope: 0.001}, DirtyRate: 100},
		{Time: sampling.LinearFit{Slope: 0.001}, DirtyRate: 100},
	}
	res, err := Exact(nodes, 1000, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Errorf("degenerate frontier has %d points, want 1", len(res.Points))
	}
}

func TestTelemetryCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	nodes := PaperModels(8)
	res, err := Sweep(nodes, 100_000, Config{Alphas: UniformAlphas(9), Telemetry: reg, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("frontier_sweeps_total").Value(); got != 1 {
		t.Errorf("frontier_sweeps_total = %d, want 1", got)
	}
	if got := reg.Counter("frontier_solves_total").Value(); got != int64(res.Stats.Solves) {
		t.Errorf("frontier_solves_total = %d, want %d", got, res.Stats.Solves)
	}
	if got := reg.Counter("frontier_warm_solves_total").Value(); got != int64(res.Stats.WarmSolves) {
		t.Errorf("frontier_warm_solves_total = %d, want %d", got, res.Stats.WarmSolves)
	}
	if got := reg.Counter("frontier_pivots_total").Value(); got != int64(res.Stats.Pivots) {
		t.Errorf("frontier_pivots_total = %d, want %d", got, res.Stats.Pivots)
	}
	if _, err := Exact(nodes, 100_000, Config{Telemetry: reg}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("frontier_exacts_total").Value(); got != 1 {
		t.Errorf("frontier_exacts_total = %d, want 1", got)
	}
}

func TestDominatesVec(t *testing.T) {
	if !DominatesVec([]float64{1, 2, 3}, []float64{1, 2, 4}) {
		t.Error("better-in-one no-worse-elsewhere must dominate")
	}
	if DominatesVec([]float64{1, 2, 3}, []float64{1, 2, 3}) {
		t.Error("equal vectors do not dominate")
	}
	if DominatesVec([]float64{1, 5}, []float64{2, 4}) {
		t.Error("trade-off vectors are incomparable")
	}
	if DominatesVec([]float64{1, 2}, []float64{1, 2, 3}) {
		t.Error("length mismatch must not dominate")
	}
	// Sub-tolerance differences are ties.
	if DominatesVec([]float64{1 - 1e-12, 2}, []float64{1, 2}) {
		t.Error("sub-tolerance improvement must not dominate")
	}
}

// dominatesByDefinition is Pareto dominance written out from its
// definition, the brute-force oracle for DominatesVec: a is no worse
// than b on every axis (a[i] − b[i] ≤ 1e-9) and strictly better on at
// least one (b[i] − a[i] > 1e-9).
func dominatesByDefinition(a, b []float64) bool {
	const tol = 1e-9
	noWorse, strictlyBetter := 0, 0
	for i := range a {
		if a[i]-b[i] <= tol {
			noWorse++
		}
		if b[i]-a[i] > tol {
			strictlyBetter++
		}
	}
	return len(a) == len(b) && noWorse == len(a) && strictlyBetter > 0
}

// randomCloud draws n 3-D objective vectors on a coarse grid, so exact
// ties are common, each coordinate nudged by an exact zero, a
// sub-tolerance jitter (±0.3e-9, a tie) or a supra-tolerance one
// (±4e-9, a real difference); about one point in eight repeats an
// earlier one exactly. No difference lands near the 1e-9 boundary.
func randomCloud(rng *rand.Rand, n int) [][]float64 {
	jitter := []float64{0, 0, 0.3e-9, -0.3e-9, 4e-9, -4e-9}
	cloud := make([][]float64, n)
	for i := range cloud {
		if i > 0 && rng.Intn(8) == 0 {
			cloud[i] = cloud[rng.Intn(i)]
			continue
		}
		v := make([]float64, 3)
		for a := range v {
			v[a] = float64(1+rng.Intn(4)) + jitter[rng.Intn(len(jitter))]
		}
		cloud[i] = v
	}
	return cloud
}

// TestDominanceMatchesBruteForceOracle checks DominatesVec on every
// ordered pair, and markDominated and Result.Frontier on the whole
// cloud, against the O(n²) filter built on dominatesByDefinition.
func TestDominanceMatchesBruteForceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		cloud := randomCloud(rng, 1+rng.Intn(60))
		pts := make([]Point, len(cloud))
		var wantFrontier []float64
		wantDominated := 0
		for i, a := range cloud {
			pts[i] = Point{Alpha: float64(i), Objectives: a}
			dominated := false
			for j, b := range cloud {
				want := dominatesByDefinition(b, a)
				if got := DominatesVec(b, a); got != want {
					t.Fatalf("trial %d: DominatesVec(%v, %v) = %v, want %v", trial, b, a, got, want)
				}
				dominated = dominated || (i != j && want)
			}
			if dominated {
				wantDominated++
			} else {
				wantFrontier = append(wantFrontier, float64(i))
			}
		}
		if got := markDominated(pts); got != wantDominated {
			t.Errorf("trial %d: markDominated flagged %d of %d points, want %d", trial, got, len(pts), wantDominated)
		}
		var gotFrontier []float64
		for _, p := range (&Result{Points: pts}).Frontier() {
			gotFrontier = append(gotFrontier, p.Alpha)
		}
		if !reflect.DeepEqual(gotFrontier, wantFrontier) {
			t.Errorf("trial %d: Frontier() keeps points %v, want %v", trial, gotFrontier, wantFrontier)
		}
	}
}

func TestUniformAlphas(t *testing.T) {
	a := UniformAlphas(5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if !reflect.DeepEqual(a, want) {
		t.Errorf("got %v, want %v", a, want)
	}
	if got := UniformAlphas(1); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("n<2 must clamp to the two endpoints, got %v", got)
	}
}
