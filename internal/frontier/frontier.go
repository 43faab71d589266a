// Package frontier enumerates the time/dirty-energy Pareto frontier
// (paper §IV, Figures 5–6) as a first-class subsystem: warm-started
// α-sweeps, exact breakpoint bisection, and dominance filtering over a
// three-objective vector, exposed to callers as a library, an HTTP
// service (service.go), and `paretobench -frontier`.
//
// # Why warm starts
//
// Every frontier sample solves the same sizing LP under a different
// objective — the constraint set (per-node time models, Σx = N) does
// not depend on α. internal/lp retains the slab tableau and optimal
// basis across solves, so moving to the next α is a primal-simplex
// re-optimization from the previous vertex: a handful of pivots
// instead of a full two-phase solve. Sweep chains re-solves within
// contiguous α ranges, one cold solve per range; at 64 nodes × 41 α
// values the warm sweep is >20× faster than cold solving
// (BenchmarkFrontier).
//
// # Determinism and cold equivalence
//
// The lp solver extracts solutions from the basis *set* against the
// original constraint rows, so a warm re-solve is bit-identical to a
// cold solve that reaches the same basis, and plans are recomputed
// from rounded integer sizes. Sweep and Exact output is therefore
// deep-equal, at any worker count, to enumerating with one independent
// opt.Optimize per α — the cold path this package replaced, kept as the
// test reference in cold_test.go and pinned by
// TestSweepEquivalentToColdFrontier and
// TestExactEquivalentToColdExactFrontier under -race.
//
// # Non-convexity
//
// Scalarization only reaches the convex hull of the frontier, and the
// bi-objective workload-distribution results in PAPERS.md show real
// profiles are non-convex — so the sweep enumerates and
// dominance-filters rather than assuming convexity, over an objective
// vector that adds a dimension the LP never saw: total node-seconds.
package frontier

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"pareto/internal/lp"
	"pareto/internal/opt"
	"pareto/internal/parallel"
	"pareto/internal/telemetry"
)

// objectiveNames names the entries of every Point's objective vector,
// in order. Lower is better on each.
var objectiveNames = []string{"makespan_s", "dirty_energy_j", "node_seconds"}

// objectives evaluates a plan's objective vector: its predicted
// makespan (s), its predicted dirty energy (J), and total busy
// node-seconds Σ f_i(x_i) over loaded nodes — the "bill" for the plan,
// distinct from the makespan: a plan that spreads work to meet a
// deadline can burn strictly more compute than a consolidated one.
func objectives(nodes []opt.NodeModel, p *opt.Plan) []float64 {
	var nodeSeconds float64
	for i, n := range nodes {
		if p.Sizes[i] > 0 {
			nodeSeconds += n.Time.Predict(float64(p.Sizes[i]))
		}
	}
	return []float64{p.Makespan, p.DirtyEnergy, nodeSeconds}
}

// DominatesVec reports whether objective vector a Pareto-dominates b:
// no worse on every axis, strictly better on at least one, up to an
// absolute tolerance of 1e-9 per axis.
func DominatesVec(a, b []float64) bool {
	const tol = 1e-9
	if len(a) != len(b) {
		return false
	}
	better := false
	for i := range a {
		if a[i] > b[i]+tol {
			return false
		}
		if a[i] < b[i]-tol {
			better = true
		}
	}
	return better
}

// Point is one frontier sample: the α it was solved at, the plan and
// its two LP objectives, the extended objective vector and solve
// provenance.
type Point struct {
	// Alpha is the scalarization weight the sample was solved at.
	Alpha float64
	// Makespan (s) and DirtyEnergy (J) are Plan's predicted
	// objectives: the sample's place on the 2-D frontier.
	Makespan    float64
	DirtyEnergy float64
	// Plan is the sizing plan the LP chose at Alpha.
	Plan *opt.Plan
	// Objectives is the plan's objective vector (objectiveNames).
	Objectives []float64
	// Warm reports whether the sample's LP solve reused a retained
	// basis.
	Warm bool
	// Pivots is the simplex pivot count this sample cost.
	Pivots int
	// Dominated marks samples pruned by dominance filtering over
	// Objectives; they remain in Result.Points (the 2-D frontier
	// contract is unchanged) but are excluded from Result.Frontier().
	Dominated bool
}

// SamePoint reports whether two frontier points coincide in objective
// space up to the relative tolerance tol (scales taken from a). It is
// the dedup predicate of Sweep and Exact.
func SamePoint(a, b Point, tol float64) bool {
	scaleT := math.Max(math.Abs(a.Makespan), 1)
	scaleE := math.Max(math.Abs(a.DirtyEnergy), 1)
	return math.Abs(a.Makespan-b.Makespan)/scaleT < tol &&
		math.Abs(a.DirtyEnergy-b.DirtyEnergy)/scaleE < tol
}

// ErrTruncated reports that Exact's recursive α bisection hit its depth
// limit between two α values whose vertices still differ: the returned
// frontier may be missing breakpoints inside that interval. The points
// found so far are still returned alongside the error; callers that can
// tolerate a partial frontier may use them.
var ErrTruncated = errors.New("frontier: bisection truncated at depth limit")

// Stats aggregates solve effort across one enumeration.
type Stats struct {
	// Solves is the number of LP solves performed.
	Solves int
	// WarmSolves counts solves that reused a retained basis.
	WarmSolves int
	// Pivots is the total simplex pivot count across all solves.
	Pivots int
	// WarmPivots is the pivot count spent in warm re-solves only.
	WarmPivots int
	// Breakpoints is the number of distinct frontier points found.
	Breakpoints int
	// Dominated is the number of samples pruned by dominance filtering.
	Dominated int
	// Elapsed is the wall-clock enumeration time.
	Elapsed time.Duration
}

// Config parameterizes Sweep and Exact. The zero value is usable:
// opt.DefaultAlphaSweep α values, GOMAXPROCS workers.
type Config struct {
	// Alphas are the scalarization weights to sample (Sweep only).
	// Empty means opt.DefaultAlphaSweep. Order is irrelevant: results
	// are canonical (ascending α).
	Alphas []float64
	// Workers bounds enumeration parallelism; ≤ 0 means GOMAXPROCS.
	// Sweep runs at most this many warm chains and never one shorter
	// than minChainAlphas, so short ladders are solved serially.
	Workers int
	// Tol is the point-coincidence tolerance: dedup for Sweep (default
	// 1e-9) and breakpoint convergence for Exact (default 1e-6).
	Tol float64
	// Telemetry receives frontier_* metrics when non-nil.
	Telemetry *telemetry.Registry
}

// Result is a dominance-filtered frontier enumeration.
type Result struct {
	// Points is the canonical point list (ascending α, adjacent
	// duplicates collapsed), including dominated samples with their
	// flag set — each point's Alpha, Makespan, DirtyEnergy and Plan are
	// exactly what a cold per-α opt.Optimize solve produces.
	Points []Point
	// Stats is the solve-effort accounting.
	Stats Stats
}

// Frontier returns the non-dominated points only.
func (r *Result) Frontier() []Point {
	out := make([]Point, 0, len(r.Points))
	for _, p := range r.Points {
		if !p.Dominated {
			out = append(out, p)
		}
	}
	return out
}

// chain is one worker's warm-start chain: a lazily built solver whose
// basis carries from one α to the next, plus its solve accounting.
type chain struct {
	nodes []opt.NodeModel
	total int
	s     *lp.Solver

	solves, warm, pivots, warmPivots int
}

// solve returns the sizing plan at α, warm-starting from the chain's
// previous solve when one exists.
func (c *chain) solve(alpha float64) (*opt.Plan, *lp.Solution, error) {
	if c.s == nil {
		prob, err := opt.SizingLP(c.nodes, c.total, alpha, opt.Constraints{})
		if err != nil {
			return nil, nil, err
		}
		c.s = prob.NewSolver()
	}
	sol, err := c.s.ReSolve(opt.SizingObjective(c.nodes, c.total, alpha))
	if err != nil {
		return nil, nil, fmt.Errorf("frontier: solve at alpha %v: %w", alpha, err)
	}
	c.solves++
	c.pivots += sol.Iterations
	if sol.Warm {
		c.warm++
		c.warmPivots += sol.Iterations
	}
	x := opt.UnitsFromShares(sol.X[:len(c.nodes)], c.total)
	return opt.PlanFromX(c.nodes, c.total, alpha, x), sol, nil
}

func (c *chain) addTo(st *Stats) {
	st.Solves += c.solves
	st.WarmSolves += c.warm
	st.Pivots += c.pivots
	st.WarmPivots += c.warmPivots
}

// ErrBadRequest marks an enumeration refused for its inputs (models
// opt.ValidateModels rejects, an α outside [0,1]) rather than failed
// while solving; the Service answers it with 400.
var ErrBadRequest = errors.New("frontier: bad request")

func validateSweep(nodes []opt.NodeModel, total int, cfg Config) ([]float64, error) {
	if err := opt.ValidateModels(nodes, total); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	alphas := cfg.Alphas
	if len(alphas) == 0 {
		alphas = opt.DefaultAlphaSweep()
	}
	sorted := make([]float64, len(alphas))
	copy(sorted, alphas)
	sort.Float64s(sorted)
	// Drop exact duplicates and validate range.
	out := sorted[:0]
	for i, a := range sorted {
		if a < 0 || a > 1 || math.IsNaN(a) {
			return nil, fmt.Errorf("%w: alpha %v out of [0,1]", ErrBadRequest, a)
		}
		if i > 0 && a == sorted[i-1] {
			continue
		}
		out = append(out, a)
	}
	return out, nil
}

// minChainAlphas is the fewest α values Sweep gives one warm chain. A
// chain opens with a cold two-phase solve, and at 64 nodes that one
// solve costs about as much as 50 of the warm re-solves that follow it
// (TestWarmSweepCostFloor logs both: ≈ 0.47 ms cold, ≈ 0.85 ms for the
// whole 41-α sweep, so ≈ 9.5 µs per re-solve): a second chain on a
// shorter ladder spends more on its cold solve than it takes off the
// first chain's wall time.
const minChainAlphas = 64

// Sweep samples the frontier at cfg.Alphas with warm-started solves
// chained inside contiguous α ranges — at most cfg.Workers of them, and
// none shorter than minChainAlphas, so a ladder of up to 127 values is
// one chain and one cold solve at any worker count — then canonicalizes
// (ascending α, adjacent duplicates collapsed) and dominance-filters
// over the objective vector. Each point's Alpha, Makespan, DirtyEnergy
// and Plan are bit-identical to a cold per-α solve at any worker count.
func Sweep(nodes []opt.NodeModel, total int, cfg Config) (*Result, error) {
	start := time.Now()
	alphas, err := validateSweep(nodes, total, cfg)
	if err != nil {
		return nil, err
	}
	tol := cfg.Tol
	if tol <= 0 {
		tol = 1e-9
	}

	n := len(alphas)
	pts := make([]Point, n)
	// Each chain takes one contiguous α range: cold at its first α, warm
	// for the rest. Bit-identity with cold solves makes the assembled
	// points independent of the split; only Stats see it.
	k := parallel.Workers(n/minChainAlphas, cfg.Workers)
	chains := make([]*chain, k)
	_, err = parallel.ForErr(k, k, func(lo, hi int) error {
		for c := lo; c < hi; c++ {
			ch := &chain{nodes: nodes, total: total}
			chains[c] = ch
			for i := c * n / k; i < (c+1)*n/k; i++ {
				plan, sol, err := ch.solve(alphas[i])
				if err != nil {
					return err
				}
				pts[i] = newPoint(nodes, alphas[i], plan, sol)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Points: canonicalize(pts, tol)}
	for _, ch := range chains {
		ch.addTo(&res.Stats)
	}
	finish(res, start, cfg.Telemetry, "sweep")
	return res, nil
}

func newPoint(nodes []opt.NodeModel, alpha float64, plan *opt.Plan, sol *lp.Solution) Point {
	return Point{
		Alpha:       alpha,
		Makespan:    plan.Makespan,
		DirtyEnergy: plan.DirtyEnergy,
		Plan:        plan,
		Objectives:  objectives(nodes, plan),
		Warm:        sol.Warm,
		Pivots:      sol.Iterations,
	}
}

// canonicalize puts points in the canonical form Sweep and Exact
// return: ascending α (inputs are pre-sorted for Sweep, in-order for
// Exact), adjacent objective-space duplicates (SamePoint) collapsed to
// their lowest-α representative.
func canonicalize(pts []Point, tol float64) []Point {
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].Alpha < pts[j].Alpha })
	out := pts[:0:len(pts)]
	for _, p := range pts {
		if len(out) == 0 || !SamePoint(out[len(out)-1], p, tol) {
			out = append(out, p)
		}
	}
	return out
}

// markDominated is the dominance filter: it flags every point whose
// objective vector another point's dominates, and returns how many it
// flagged.
func markDominated(pts []Point) int {
	dominated := 0
	for i := range pts {
		for j := range pts {
			if i != j && DominatesVec(pts[j].Objectives, pts[i].Objectives) {
				pts[i].Dominated = true
				dominated++
				break
			}
		}
	}
	return dominated
}

// finish runs dominance filtering, fills derived stats, and emits
// telemetry.
func finish(res *Result, start time.Time, reg *telemetry.Registry, kind string) {
	dominated := markDominated(res.Points)
	res.Stats.Dominated = dominated
	res.Stats.Breakpoints = len(res.Points) - dominated
	res.Stats.Elapsed = time.Since(start)

	if reg != nil {
		reg.Counter("frontier_" + kind + "s_total").Inc()
		reg.Counter("frontier_solves_total").Add(int64(res.Stats.Solves))
		reg.Counter("frontier_warm_solves_total").Add(int64(res.Stats.WarmSolves))
		reg.Counter("frontier_pivots_total").Add(int64(res.Stats.Pivots))
		reg.Counter("frontier_breakpoints_total").Add(int64(res.Stats.Breakpoints))
		reg.Counter("frontier_dominated_total").Add(int64(dominated))
		reg.Histogram("frontier_enumeration_ns", telemetry.LatencyBuckets()).
			Observe(res.Stats.Elapsed.Nanoseconds())
	}
}

// exactMaxDepth bounds Exact's recursion. With the 1e-9 α-width
// convergence floor a bisection from [0,1] bottoms out near depth 30, so
// 40 is a pure safety net: exhaustion with differing endpoints means an
// incomplete frontier and is surfaced via ErrTruncated. A variable
// (not a const) so tests can lower it to exercise the truncation path.
var exactMaxDepth = 40

// Exact enumerates every distinct frontier vertex by recursive α
// bisection with warm-started solves: the scalarized LP is piecewise
// constant in its optimal vertex as α varies, so whenever the solutions
// at two α values differ, some breakpoint lies between them. An interval
// narrower than 1e-9 in α whose endpoints still differ is converged.
//
// The recursion carries a solver chain down its in-order walk, and when
// cfg.Workers > 1 the top levels of the recursion tree fork into
// goroutines, each subtree chaining its own solver. Spawn depth is a
// pure function of Workers, so chains — and therefore Stats — are
// deterministic, and bit-identity makes the points deep-equal to a cold
// bisection regardless of parallelism.
func Exact(nodes []opt.NodeModel, total int, cfg Config) (*Result, error) {
	start := time.Now()
	if _, err := validateSweep(nodes, total, cfg); err != nil {
		return nil, err
	}
	tol := cfg.Tol
	if tol <= 0 {
		tol = 1e-6
	}

	// Spawn goroutines only in the top ⌈log2(workers)⌉ levels.
	workers := parallel.Workers(1<<20, cfg.Workers)
	spawnDepth := 0
	for 1<<spawnDepth < workers {
		spawnDepth++
	}

	root := &chain{nodes: nodes, total: total}
	solve := func(c *chain, alpha float64) (Point, error) {
		plan, sol, err := c.solve(alpha)
		if err != nil {
			return Point{}, err
		}
		return newPoint(nodes, alpha, plan, sol), nil
	}
	lo, err := solve(root, 0)
	if err != nil {
		return nil, err
	}
	hi, err := solve(root, 1)
	if err != nil {
		return nil, err
	}

	same := func(a, b Point) bool { return SamePoint(a, b, tol) }
	// rec returns the points strictly inside (a, b), in α order.
	var rec func(c *chain, a, b Point, depth int) subResult
	rec = func(c *chain, a, b Point, depth int) subResult {
		if same(a, b) || b.Alpha-a.Alpha < 1e-9 {
			return subResult{}
		}
		if depth > exactMaxDepth {
			return subResult{truncated: true}
		}
		mid, err := solve(c, (a.Alpha+b.Alpha)/2)
		if err != nil {
			return subResult{err: err}
		}
		var left subResult
		if depth < spawnDepth {
			// Fork the left half onto its own goroutine with a fresh
			// chain; the right half continues on this chain inline.
			lc := &chain{nodes: nodes, total: total}
			done := make(chan subResult, 1)
			go func() {
				sr := rec(lc, a, mid, depth+1)
				sr.chains = append(sr.chains, lc)
				done <- sr
			}()
			right := rec(c, mid, b, depth+1)
			left = <-done
			return mergeSub(left, mid, right, same, a, b)
		}
		left = rec(c, a, mid, depth+1)
		right := rec(c, mid, b, depth+1)
		return mergeSub(left, mid, right, same, a, b)
	}
	sub := rec(root, lo, hi, 0)
	if sub.err != nil {
		return nil, sub.err
	}

	pts := make([]Point, 0, len(sub.pts)+2)
	pts = append(pts, lo)
	pts = append(pts, sub.pts...)
	if !same(lo, hi) {
		pts = append(pts, hi)
	}
	res := &Result{Points: canonicalize(pts, tol)}
	root.addTo(&res.Stats)
	for _, c := range sub.chains {
		c.addTo(&res.Stats)
	}
	finish(res, start, cfg.Telemetry, "exact")
	if sub.truncated {
		return res, fmt.Errorf("frontier: exact enumeration incomplete beyond depth %d: %w", exactMaxDepth, ErrTruncated)
	}
	return res, nil
}

// subResult is one bisection subtree's outcome: the points strictly
// inside its interval (in α order), the solver chains it consumed
// (for stats), and whether any branch hit the depth budget.
type subResult struct {
	pts       []Point
	chains    []*chain
	truncated bool
	err       error
}

// mergeSub assembles an in-order subtree result: left points, the
// midpoint (if distinct from both interval endpoints), then right
// points.
func mergeSub(left subResult, mid Point, right subResult, same func(a, b Point) bool, a, b Point) subResult {
	out := subResult{
		pts:       left.pts,
		chains:    append(left.chains, right.chains...),
		truncated: left.truncated || right.truncated,
		err:       left.err,
	}
	if out.err == nil {
		out.err = right.err
	}
	if !same(mid, a) && !same(mid, b) {
		out.pts = append(out.pts, mid)
	}
	out.pts = append(out.pts, right.pts...)
	return out
}
