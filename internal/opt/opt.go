// Package opt implements the Pareto-optimal modeler (paper §III-D):
// given per-node execution-time utility functions f_i(x) = m_i·x + c_i
// and dirty-power constants k_i, it sizes the p data partitions by
// solving the scalarized multi-objective linear program
//
//	minimize    α·v + (1−α)·Σ_i k_i·(m_i·x_i + c_i)
//	subject to  v ≥ m_i·x_i + c_i       (v is the makespan)
//	            Σ_i x_i = N,  x_i ≥ 0
//
// Scalarization guarantees every solution is Pareto-optimal; sweeping
// α from 1 to 0 traces the time/dirty-energy Pareto frontier. α = 1 is
// the paper's Het-Aware scheme (pure makespan minimization); α slightly
// below 1 is Het-Energy-Aware.
//
// Because the two objectives have very different scales, raw α must sit
// extremely close to 1 to trade time against energy (the paper uses
// 0.999 and 0.995 and flags normalization as future work).
package opt

import (
	"errors"
	"fmt"
	"math"

	"pareto/internal/lp"
	"pareto/internal/sampling"
)

// NodeModel aggregates what the modeler knows about one node: its
// learned time utility function and its dirty-power constant
// k_i = E_i − mean GE_i (W), per §III-B's linearization.
type NodeModel struct {
	// Time predicts execution seconds from data-unit count.
	Time sampling.LinearFit
	// DirtyRate is k_i in watts; ≥ 0.
	DirtyRate float64
}

// Plan is the modeler's output partition sizing.
type Plan struct {
	// Sizes holds integral per-node data-unit counts summing to the
	// requested total.
	Sizes []int
	// X is the raw (fractional) LP solution.
	X []float64
	// Makespan is the predicted maximum per-node execution time, v.
	Makespan float64
	// DirtyEnergy is the predicted total dirty energy in joules:
	// Σ k_i · f_i(x_i) over nodes with x_i > 0.
	DirtyEnergy float64
	// Alpha is the scalarization weight used.
	Alpha float64
}

// ValidateModels rejects inputs no sizing LP can be built from: no
// nodes, a total below 1, or a slope, intercept or dirty rate that is
// negative, NaN or infinite. It is the one model check: Optimize and
// OptimizeWithConstraints apply it, and so does internal/frontier
// before it enumerates.
func ValidateModels(nodes []NodeModel, total int) error {
	if len(nodes) == 0 {
		return errors.New("opt: no nodes")
	}
	if total <= 0 {
		return fmt.Errorf("opt: total data units %d, need ≥ 1", total)
	}
	for i, n := range nodes {
		if !finiteNonNeg(n.Time.Slope) || !finiteNonNeg(n.Time.Intercept) {
			return fmt.Errorf("opt: node %d has a negative or non-finite time model (%v, %v); clamp fits first",
				i, n.Time.Slope, n.Time.Intercept)
		}
		if !finiteNonNeg(n.DirtyRate) {
			return fmt.Errorf("opt: node %d has a negative or non-finite dirty rate %v", i, n.DirtyRate)
		}
	}
	return nil
}

// finiteNonNeg reports whether x is a number in [0, +Inf).
func finiteNonNeg(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

func validate(nodes []NodeModel, total int, alpha float64) error {
	if err := ValidateModels(nodes, total); err != nil {
		return err
	}
	if alpha < 0 || alpha > 1 {
		return fmt.Errorf("opt: alpha %v out of [0,1]", alpha)
	}
	return nil
}

// Constraints are optional side conditions on the partition sizing.
type Constraints struct {
	// MinSize forces x_i ≥ MinSize for every node. Scaled-support
	// mining algorithms degenerate on very small partitions (a local
	// threshold of a couple of records makes everything locally
	// frequent), so production deployments floor the share a node may
	// receive. Values above total/p are capped there. 0 disables.
	MinSize float64
}

// Optimize solves the scalarized LP at the given α and returns the
// partition sizing. α = 1 reproduces Het-Aware; the paper's
// Het-Energy-Aware runs use α = 0.999 (mining) and 0.995 (compression).
func Optimize(nodes []NodeModel, total int, alpha float64) (*Plan, error) {
	return OptimizeWithConstraints(nodes, total, alpha, Constraints{})
}

// OptimizeWithConstraints is Optimize with side conditions.
func OptimizeWithConstraints(nodes []NodeModel, total int, alpha float64, cons Constraints) (*Plan, error) {
	if err := validate(nodes, total, alpha); err != nil {
		return nil, err
	}
	if cons.MinSize < 0 {
		return nil, fmt.Errorf("opt: negative MinSize %v", cons.MinSize)
	}
	if cap := float64(total) / float64(len(nodes)); cons.MinSize > cap {
		cons.MinSize = cap
	}
	x, err := solveScalarized(nodes, total, alpha, cons)
	if err != nil {
		return nil, err
	}
	return PlanFromX(nodes, total, alpha, x), nil
}

// tieBreakWeight is the floor on each scalarization weight. At the
// endpoints the raw weights vanish (α=1 zeroes the energy term, α=0
// the makespan term) and the LP develops a whole optimal face — every
// distribution achieving the extreme value ties, and which vertex
// simplex reports becomes pivot-path dependent. Flooring the weights
// turns the endpoints into lexicographic objectives (min makespan,
// then min dirty energy among the tied plans, and vice versa), which
// generically has a unique optimum. The floor is far above the
// solver's eps so the tie-break is decided by real reduced costs, and
// small enough to be invisible away from the endpoints.
const tieBreakWeight = 1e-6

// SizingObjective returns the scalarized objective at the given α over
// the LP's p+1 variables (shares s_0..s_{p−1}, then v), where
// s_i = x_i/total is node i's share of the data:
//
//	min w_v·v + w_e·Σ k_i m_i total s_i
//
// with w_v = max(α, tieBreakWeight), w_e = max(1−α, tieBreakWeight).
// SizingLP builds with it and frontier sweeps pass it to
// lp.Solver.ReSolve to move between α values without rebuilding the LP,
// so warm re-solves see bit-identical coefficients to a cold build.
func SizingObjective(nodes []NodeModel, total int, alpha float64) []float64 {
	p := len(nodes)
	we := math.Max(1-alpha, tieBreakWeight)
	wv := math.Max(alpha, tieBreakWeight)
	obj := make([]float64, p+1)
	for i, n := range nodes {
		obj[i] = we * n.DirtyRate * n.Time.Slope * float64(total)
	}
	obj[p] = wv
	return obj
}

// SizingLP builds the partition-sizing LP (§III-D) at the given α over
// *share* variables s_i = x_i/total: per-node constraints
// m_i·total·s_i − v ≤ −c_i, optional MinSize/total floors, and
// Σ s_i = 1. Solving in shares keeps every variable O(1) regardless of
// the dataset size, which keeps simplex reduced costs on the same
// scale as the solver's optimality tolerance — the property that makes
// warm and cold solves terminate at the same vertex instead of
// straddling a tolerance knife-edge (see internal/frontier). Use
// UnitsFromShares to map a solution back to data units.
//
// The constraint set is α-independent — only the objective changes
// between frontier samples — which is what makes the warm-start sweep
// in internal/frontier valid.
func SizingLP(nodes []NodeModel, total int, alpha float64, cons Constraints) (*lp.Problem, error) {
	p := len(nodes)
	prob, err := lp.NewProblem(SizingObjective(nodes, total, alpha))
	if err != nil {
		return nil, fmt.Errorf("opt: %w", err)
	}
	// One scratch row, cleared between constraints: AddConstraint copies.
	row := make([]float64, p+1)
	for i, n := range nodes {
		// m_i·total·s_i − v ≤ −c_i
		clear(row)
		row[i] = n.Time.Slope * float64(total)
		row[p] = -1
		if err := prob.AddConstraint(row, lp.LE, -n.Time.Intercept); err != nil {
			return nil, fmt.Errorf("opt: %w", err)
		}
		if cons.MinSize > 0 {
			clear(row)
			row[i] = 1
			if err := prob.AddConstraint(row, lp.GE, cons.MinSize/float64(total)); err != nil {
				return nil, fmt.Errorf("opt: %w", err)
			}
		}
	}
	for i := range row {
		row[i] = 1
	}
	row[p] = 0
	if err := prob.AddConstraint(row, lp.EQ, 1); err != nil {
		return nil, fmt.Errorf("opt: %w", err)
	}
	return prob, nil
}

// UnitsFromShares maps a share-space LP solution (SizingLP's native
// variables) back to data units: x_i = s_i·total. Cold solves and warm
// frontier re-solves both go through this one expression, so
// bit-identical share vectors always yield bit-identical unit vectors.
func UnitsFromShares(shares []float64, total int) []float64 {
	x := make([]float64, len(shares))
	for i, s := range shares {
		x[i] = s * float64(total)
	}
	return x
}

// solveScalarized builds and solves the scalarized LP, returning the
// fractional x in data units.
func solveScalarized(nodes []NodeModel, total int, alpha float64, cons Constraints) ([]float64, error) {
	prob, err := SizingLP(nodes, total, alpha, cons)
	if err != nil {
		return nil, err
	}
	sol, err := prob.NewSolver().Solve()
	if err != nil {
		return nil, fmt.Errorf("opt: scalarized LP: %w", err)
	}
	return UnitsFromShares(sol.X[:len(nodes)], total), nil
}

// makespanOf returns max_i f_i(x_i) over nodes with x_i > 0 (an idle
// node does not run and cannot bottleneck the job).
func makespanOf(nodes []NodeModel, x []float64) float64 {
	v := 0.0
	for i, n := range nodes {
		if x[i] <= 0 {
			continue
		}
		if t := n.Time.Predict(x[i]); t > v {
			v = t
		}
	}
	return v
}

// energyOf returns Σ k_i f_i(x_i) over nodes with x_i > 0.
func energyOf(nodes []NodeModel, x []float64) float64 {
	e := 0.0
	for i, n := range nodes {
		if x[i] <= 0 {
			continue
		}
		e += n.DirtyRate * n.Time.Predict(x[i])
	}
	return e
}

// PlanFromX materializes a Plan from a fractional LP solution: sizes
// are rounded to integers summing to total (largest-remainder), and
// Makespan/DirtyEnergy are recomputed from the integer sizes — so two
// bit-identical x vectors always produce bit-identical Plans, the
// property the warm-started sweep's equivalence guarantee extends
// through.
func PlanFromX(nodes []NodeModel, total int, alpha float64, x []float64) *Plan {
	sizes := RoundToTotal(x, total)
	xi := make([]float64, len(sizes))
	for i, s := range sizes {
		xi[i] = float64(s)
	}
	return &Plan{
		Sizes:       sizes,
		X:           x,
		Makespan:    makespanOf(nodes, xi),
		DirtyEnergy: energyOf(nodes, xi),
		Alpha:       alpha,
	}
}

// RoundToTotal rounds nonnegative fractional shares to integers that
// sum exactly to total, using largest-remainder apportionment.
// Negative inputs (LP jitter) are treated as zero.
func RoundToTotal(x []float64, total int) []int {
	n := len(x)
	sizes := make([]int, n)
	type rem struct {
		i int
		f float64
	}
	rems := make([]rem, 0, n)
	assigned := 0
	for i, v := range x {
		if v < 0 {
			v = 0
		}
		fl := math.Floor(v)
		sizes[i] = int(fl)
		assigned += sizes[i]
		rems = append(rems, rem{i, v - fl})
	}
	left := total - assigned
	if left < 0 {
		// Fractional sum exceeded total (rounding noise): trim from the
		// largest allocations.
		for left < 0 {
			big := 0
			for i := range sizes {
				if sizes[i] > sizes[big] {
					big = i
				}
			}
			sizes[big]--
			left++
		}
		return sizes
	}
	// Distribute the remainder to the largest fractional parts,
	// deterministically (fraction desc, index asc).
	for k := 0; k < left; k++ {
		best := -1
		for j := range rems {
			if rems[j].f < 0 {
				continue
			}
			if best < 0 || rems[j].f > rems[best].f {
				best = j
			}
		}
		if best < 0 {
			// All remainders consumed; spread round-robin.
			sizes[k%n]++
			continue
		}
		sizes[rems[best].i]++
		rems[best].f = -1
	}
	return sizes
}

// DefaultAlphaSweep returns the default α ladder of frontier.Sweep and
// of the /frontier service, dense near 1 (where the interesting
// tradeoffs live, given the raw objective scales) and sparse toward 0.
// Figures 5–6 sample their own ladder (internal/bench's fig5Alphas).
func DefaultAlphaSweep() []float64 {
	return []float64{1.0, 0.9999, 0.9995, 0.999, 0.995, 0.99, 0.95, 0.9, 0.5, 0.1, 0.0}
}
