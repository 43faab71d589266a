// Package frontier enumerates the time/dirty-energy Pareto frontier
// (paper §IV, Figures 5–6) as a first-class subsystem: warm-started
// α-sweeps, every vertex by dichotomic search, and dominance filtering
// over a three-objective vector, exposed to callers as a library, an
// HTTP service (service.go), and `paretobench -frontier`.
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
// from rounded integer sizes. Every Sweep and Exact point is therefore
// deep-equal, at any worker count, to one independent opt.Optimize at
// its α — the cold path this package replaced, kept as the test
// reference in cold_test.go and pinned by
// TestSweepEquivalentToColdFrontier and
// TestExactEquivalentToColdExactFrontier, which also holds Exact's
// vertices to a cold α bisection.
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
	// Workers bounds Sweep's parallelism; ≤ 0 means GOMAXPROCS. Sweep
	// runs at most this many warm chains and never one shorter than
	// minChainAlphas, so short ladders are solved serially. Exact is
	// one chain.
	Workers int
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
	res := &Result{Points: canonicalize(pts)}
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

// dedupTol is the relative tolerance (SamePoint) under which Sweep and
// Exact collapse adjacent points. Plans are recomputed from integer
// sizes, so equal plans compare bit-equal and it has nothing to absorb.
const dedupTol = 1e-9

// canonicalize puts points in the canonical form Sweep and Exact
// return: ascending α (inputs are pre-sorted for Sweep, in-order for
// Exact), adjacent objective-space duplicates (SamePoint) collapsed to
// their lowest-α representative.
func canonicalize(pts []Point) []Point {
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].Alpha < pts[j].Alpha })
	out := pts[:0:len(pts)]
	for _, p := range pts {
		if len(out) == 0 || !SamePoint(out[len(out)-1], p, dedupTol) {
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

// adjacentMargin is the relative improvement in the scalarized
// objective at a tie weight that makes the solve there a new vertex
// rather than one of the two it was computed from (or a point of the
// edge between them). Far above the float rounding of a 64-term dot
// product, far below the gap between distinct vertices of a sizing LP,
// like lp.eps for the solver's own pivots.
const adjacentMargin = 1e-9

// Exact enumerates every vertex of the 2-D frontier by dichotomic
// search (Aneja & Nair, Mgmt. Sci. 1979) on one warm chain. It solves
// α = 0 and α = 1; for two known vertices a and b it solves at the α*
// where their scalarized objectives tie, computed from the LP's own
// values (makespan v and dirty energy Σ k_i·m_i·total·s_i). A solve
// there that is not better than a at α* means a and b are adjacent;
// otherwise it is a new vertex between them, and both halves are
// searched in order. Each solve either finds a vertex or closes an
// edge, so k points cost at most 2k − 1 solves, and no depth limit or
// convergence tolerance is needed.
func Exact(nodes []opt.NodeModel, total int, cfg Config) (*Result, error) {
	start := time.Now()
	if _, err := validateSweep(nodes, total, cfg); err != nil {
		return nil, err
	}
	p := len(nodes)
	// vertex is a solved point with the LP's own shares and objectives.
	type vertex struct {
		pt   Point
		x    []float64
		v, e float64
	}
	c := &chain{nodes: nodes, total: total}
	solve := func(alpha float64) (vertex, error) {
		plan, sol, err := c.solve(alpha)
		if err != nil {
			return vertex{}, err
		}
		vx := vertex{pt: newPoint(nodes, alpha, plan, sol), x: sol.X, v: sol.X[p]}
		for i, n := range nodes {
			vx.e += n.DirtyRate * n.Time.Slope * float64(total) * sol.X[i]
		}
		return vx, nil
	}
	lo, err := solve(0)
	if err != nil {
		return nil, err
	}
	hi, err := solve(1)
	if err != nil {
		return nil, err
	}

	pts := []Point{lo.pt}
	// search appends the vertices strictly between a and b, in α order.
	var search func(a, b vertex) error
	search = func(a, b vertex) error {
		de, dv := b.e-a.e, b.v-a.v
		alpha := de / (de - dv)
		// NaN too: a and b are one LP vertex.
		if !(alpha > a.pt.Alpha && alpha < b.pt.Alpha) {
			return nil
		}
		m, err := solve(alpha)
		if err != nil {
			return err
		}
		obj := opt.SizingObjective(nodes, total, alpha)
		fa := dot(obj, a.x)
		if !(dot(obj, m.x) < fa-adjacentMargin*math.Abs(fa)) {
			return nil
		}
		if err := search(a, m); err != nil {
			return err
		}
		pts = append(pts, m.pt)
		return search(m, b)
	}
	if err := search(lo, hi); err != nil {
		return nil, err
	}
	res := &Result{Points: canonicalize(append(pts, hi.pt))}
	c.addTo(&res.Stats)
	finish(res, start, cfg.Telemetry, "exact")
	return res, nil
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
