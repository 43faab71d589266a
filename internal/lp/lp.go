// Package lp provides a dense two-phase primal simplex solver for
// small linear programs, built from scratch on the standard library.
//
// The Pareto modeler (paper §III-D) reduces partition sizing to the LP
//
//	minimize    α·v + (1−α)·Σ k_i (m_i x_i + c_i)
//	subject to  v ≥ m_i x_i + c_i   for every node i
//	            Σ x_i = N,  x_i ≥ 0
//
// whose dimensions are tiny (one variable per node plus v), so a dense
// tableau with Bland's anti-cycling rule is both simple and exact
// enough. The solver is nevertheless a complete general-purpose LP
// implementation over nonnegative variables: ≤ / = / ≥ constraints,
// infeasibility and unboundedness detection.
//
// # Warm starts
//
// Frontier enumeration solves the same constraint set under many
// objectives (one per α). A Solver retains the slab tableau and the
// factorized basis across solves: ReSolve swaps in a new objective and
// re-optimizes with primal simplex from the previous optimal vertex.
// An objective-only change preserves primal feasibility (the basic
// solution still satisfies every constraint), so a re-solve is
// typically a handful of pivots instead of a full two-phase run.
// Solution reports Iterations and whether the solve was warm.
//
// # One factorization per vertex
//
// The pivoted tableau carries the float drift of its whole pivot
// history, so neither the optimality verdict nor the reported solution
// is read from it. Both come from one LU factorization of the basis
// matrix gathered from the never-pivoted constraint rows (factor): the
// duals that certify optimality (exactEntering) and the primal values
// that become Solution.X (extract) are two pairs of triangular solves
// against it. The factorization is a pure function of the basis set
// and the model, and it is kept until a pivot, a rebuild or a model
// rewrite changes either — most warm re-solves along an α ladder take
// no pivot at all and pay for the triangular solves only.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Op is a constraint comparison operator.
type Op int

// Constraint operators.
const (
	LE Op = iota // ≤
	EQ           // =
	GE           // ≥
)

// String returns the operator symbol.
func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case EQ:
		return "="
	case GE:
		return ">="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Sentinel errors returned by Solve.
var (
	// ErrInfeasible reports that no point satisfies all constraints.
	ErrInfeasible = errors.New("lp: infeasible")
	// ErrUnbounded reports that the objective decreases without bound.
	ErrUnbounded = errors.New("lp: unbounded")
)

type constraint struct {
	coeffs []float64
	op     Op
	rhs    float64
}

// Problem is a linear program: minimize Objective·x subject to the
// added constraints, with every variable nonnegative. The zero Problem
// is unusable; create with NewProblem.
type Problem struct {
	numVars int
	obj     []float64
	cons    []constraint
}

// NewProblem creates a minimization problem over numVars variables
// with the given objective coefficients (length must equal numVars).
func NewProblem(objective []float64) (*Problem, error) {
	if len(objective) == 0 {
		return nil, errors.New("lp: problem needs at least one variable")
	}
	obj := make([]float64, len(objective))
	copy(obj, objective)
	return &Problem{numVars: len(objective), obj: obj}, nil
}

// AddConstraint appends the constraint coeffs·x op rhs. The coefficient
// slice is copied; its length must equal NumVars.
func (p *Problem) AddConstraint(coeffs []float64, op Op, rhs float64) error {
	if len(coeffs) != p.numVars {
		return fmt.Errorf("lp: constraint has %d coefficients, want %d", len(coeffs), p.numVars)
	}
	if op != LE && op != EQ && op != GE {
		return fmt.Errorf("lp: unknown operator %v", op)
	}
	c := make([]float64, len(coeffs))
	copy(c, coeffs)
	p.cons = append(p.cons, constraint{coeffs: c, op: op, rhs: rhs})
	return nil
}

// Solution is an optimal LP solution.
type Solution struct {
	// X holds the optimal variable values, in problem coordinates.
	X []float64
	// Objective is the optimal objective value.
	Objective float64
	// Iterations is the number of simplex pivots performed: across both
	// phases for a cold solve, and for the re-optimization alone on a
	// warm ReSolve — the planner's audit of how hard the sizing LP
	// worked.
	Iterations int
	// Warm is true when the solve re-optimized from a retained basis
	// (Solver.ReSolve) instead of running two-phase simplex from
	// scratch.
	Warm bool
}

// eps is the pivoting and feasibility tolerance.
const eps = 1e-9

// refreshEvery bounds how many incremental reduced-cost updates may
// run between full recomputations. Incremental maintenance turns each
// iteration's O(m·n) reduced-cost rebuild (which also allocated) into
// an O(n) row update; the periodic rebuild keeps float drift from
// accumulating across many pivots, and optimality is never declared on
// drifted data (see optimize).
const refreshEvery = 64

// Solver retains the slab tableau, the column mapping, and the current
// basis of one Problem across solves, enabling warm-started
// re-optimization under changing objectives (ReSolve). A Solver is not
// safe for concurrent use; frontier sweeps run one Solver per worker.
type Solver struct {
	p *Problem

	built bool
	// ready marks the basis as a valid primal-feasible starting point
	// for a warm re-solve (set after any successful solve).
	ready bool

	m, ncols, total int
	nArt            int

	// Variable i is solver column i; each row's slack/surplus and
	// artificial columns follow.
	slackCol []int
	artCol   []int

	t tableau

	// a0/b0 snapshot the normalized constraint rows (nonnegative RHS,
	// slack/surplus/artificial columns in place) before any pivoting.
	// The vertex factorization below is gathered from them, which makes
	// everything derived from it drift-free: two solves ending at the
	// same optimal basis produce bit-identical solutions regardless of
	// pivot path, and the maintained tableau's accumulated float drift
	// can cost extra pivots but never certify a suboptimal basis.
	// Together these are the warm-started frontier sweep's
	// cold-equivalence guarantee.
	a0, b0 []float64
	// sobj is the current objective mapped onto solver columns.
	sobj []float64

	// lu is the canonical factorization of the current vertex:
	// P·B = L·U in place (L unit-diagonal below, U on and above the
	// diagonal), where B is a0 restricted to the basis columns in
	// ascending order (bcols) and perm is P. luOK is false when B is
	// numerically singular. The factorization stands until t.moved
	// says the basis or the model changed (see factor).
	lu    []float64
	bcols []int
	perm  []int
	luOK  bool
	// tri is the triangular solves' work vector; y holds the duals.
	tri, y []float64
	// xcols holds per-solver-column values during extraction and the
	// certified reduced-cost row during exactEntering.
	xcols []float64
}

// NewSolver creates a reusable solver for the problem's current
// constraint set. Constraints added to the Problem after NewSolver are
// picked up by the next cold Solve but invalidate any warm state only
// implicitly — add all constraints before solving.
func (p *Problem) NewSolver() *Solver {
	return &Solver{p: p}
}

// build sizes and carves the slabs, then fills the normalized tableau
// rows and the initial slack/artificial basis. Safe to call repeatedly:
// slabs are allocated once and rewritten in place.
func (s *Solver) build() {
	p := s.p
	m := len(p.cons)

	// Pre-pass: count solver columns without allocating. Column layout:
	// one per variable; then slack/surplus columns; then artificials.
	nSlack, nArt := 0, 0
	for _, c := range p.cons {
		op := c.op
		if c.rhs < 0 { // the row will be sign-flipped; ≤ ↔ ≥
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		if op == LE || op == GE {
			nSlack++
		}
		if op == GE || op == EQ {
			nArt++
		}
	}
	ncols := p.numVars + nSlack
	total := ncols + nArt

	if !s.built {
		// Slab 1: all integer state. Slab 2: all float state.
		ints := make([]int, 5*m+total)
		s.slackCol, ints = ints[:m], ints[m:]
		s.artCol, ints = ints[:m], ints[m:]
		basis, ints := ints[:m], ints[m:]
		s.bcols, ints = ints[:m], ints[m:]
		s.perm, ints = ints[:m], ints[m:]
		nz := ints[:0:total]

		floats := make([]float64, 2*(m*total)+2*m+3*total+m*m+2*m)
		a := floats[:m*total]
		floats = floats[m*total:]
		s.a0, floats = floats[:m*total], floats[m*total:]
		bvec, floats := floats[:m], floats[m:]
		s.b0, floats = floats[:m], floats[m:]
		red, floats := floats[:total], floats[total:]
		s.sobj, floats = floats[:total], floats[total:]
		s.xcols, floats = floats[:total], floats[total:]
		s.lu, floats = floats[:m*m], floats[m*m:]
		s.tri, floats = floats[:m], floats[m:]
		s.y = floats[:m]

		s.t = tableau{m: m, stride: total, a: a, b: bvec, basis: basis, red: red, nz: nz}
		s.built = true
	} else {
		// Rewind a previous solve: clear the matrix slab; every other
		// slab is fully rewritten below.
		clear(s.t.a)
	}
	s.m, s.ncols, s.total, s.nArt = m, ncols, total, nArt
	s.t.n = total
	s.t.pivots = 0
	s.t.moved = true
	s.ready = false

	t := &s.t
	// Build rows directly into the flat tableau with nonnegative RHS.
	slack, art := p.numVars, ncols
	for r, c := range p.cons {
		row := t.row(r)
		copy(row, c.coeffs)
		op, b := c.op, c.rhs
		if b < 0 {
			for j := range row {
				row[j] = -row[j]
			}
			b = -b
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		t.b[r] = b
		if op == LE || op == GE {
			s.slackCol[r] = slack
			slack++
			if op == LE {
				row[s.slackCol[r]] = 1
			} else {
				row[s.slackCol[r]] = -1
			}
		} else {
			s.slackCol[r] = -1
		}
		if op == GE || op == EQ {
			s.artCol[r] = art
			art++
			row[s.artCol[r]] = 1
			t.basis[r] = s.artCol[r]
		} else {
			s.artCol[r] = -1
			t.basis[r] = s.slackCol[r] // LE slack with +1 coefficient
		}
	}
	// Snapshot the normalized pre-pivot system for the vertex
	// factorization.
	copy(s.a0, t.a)
	copy(s.b0, t.b)
}

// Solve runs a cold two-phase primal simplex solve with the problem's
// own objective, (re)building the tableau from the constraint set, and
// returns an optimal basic solution, ErrInfeasible, or ErrUnbounded. On
// success the Solver's basis is primed for warm ReSolve calls.
//
// The tableau is a flat row-major []float64 carved, together with every
// other piece of solver state, out of two slab allocations sized in a
// pre-pass — Solve's allocation count is constant in the iteration
// count and near-constant in problem size.
func (s *Solver) Solve() (*Solution, error) {
	s.build()
	t := &s.t
	m, ncols := s.m, s.ncols

	// Phase 1: minimize the sum of artificials.
	if s.nArt > 0 {
		phaseObj := s.sobj
		clear(phaseObj)
		for r := 0; r < m; r++ {
			if s.artCol[r] >= 0 {
				phaseObj[s.artCol[r]] = 1
			}
		}
		val, err := t.optimize(phaseObj, nil)
		if err != nil {
			// Phase 1 is bounded below by 0; unboundedness means a bug,
			// surface it as-is.
			return nil, err
		}
		if val > 1e-7 {
			return nil, ErrInfeasible
		}
		// Drive remaining artificials out of the basis.
		for r := 0; r < m; r++ {
			if t.basis[r] < ncols {
				continue
			}
			row := t.row(r)
			for j := 0; j < ncols; j++ {
				if math.Abs(row[j]) > eps {
					t.pivot(r, j)
					break
				}
			}
			// If no pivot column exists the row is redundant: the basis
			// keeps the artificial at value 0, which can never re-enter
			// (the column count shrinks below it next).
		}
		// Forbid artificial columns from re-entering: shrink the active
		// column count; the flat rows keep their stride, so no copying.
		t.n = ncols
	}

	// Phase 2: the real objective over solver columns.
	s.setObjective(s.p.obj)
	if _, err := t.optimize(s.sobj[:t.n], s); err != nil {
		return nil, err
	}
	s.ready = true
	return s.extract(s.p.obj, t.pivots, false), nil
}

// ReSolve re-optimizes with a new objective (length NumVars, problem
// coordinates) starting from the current basis. Because only the
// objective changes, the retained vertex stays primal-feasible and the
// re-solve is pure phase-2 primal simplex — typically a handful of
// pivots. Without a prior successful solve it falls back to a cold
// solve under the given objective (Solution.Warm reports which path
// ran). A ReSolve that returns ErrUnbounded leaves the basis feasible,
// so later ReSolve calls with bounded objectives remain valid.
func (s *Solver) ReSolve(objective []float64) (*Solution, error) {
	if len(objective) != s.p.numVars {
		return nil, fmt.Errorf("lp: ReSolve objective has %d coefficients, want %d", len(objective), s.p.numVars)
	}
	if !s.ready {
		return s.coldSolve(objective)
	}
	t := &s.t
	s.setObjective(objective)
	before := t.pivots
	if _, err := t.optimize(s.sobj[:t.n], s); err != nil {
		return nil, err
	}
	return s.extract(objective, t.pivots-before, true), nil
}

// coldSolve runs a full two-phase solve under the given objective
// without permanently replacing the problem's own objective.
func (s *Solver) coldSolve(objective []float64) (*Solution, error) {
	saved := s.p.obj
	s.p.obj = objective
	sol, err := s.Solve()
	s.p.obj = saved
	return sol, err
}

// ConstraintUpdate replaces the coefficients and right-hand side of one
// existing constraint, in problem coordinates. The comparison operator
// is fixed at AddConstraint time and cannot change.
type ConstraintUpdate struct {
	// Row indexes the constraint in AddConstraint order.
	Row int
	// Coeffs is the new coefficient vector (length NumVars).
	Coeffs []float64
	// RHS is the new right-hand side.
	RHS float64
}

// ReSolveModel re-optimizes after the *model* changed: the given
// constraint rows take new coefficients and right-hand sides, and the
// solve runs under the given objective (length NumVars, problem
// coordinates). Unlike ReSolve, a model change can invalidate the
// retained vertex, so the warm path re-prices the retained basis
// against the updated rows: the normalized pre-pivot snapshot (a0/b0)
// is rewritten for the changed rows, the tableau is refactorized from
// the snapshot under the retained basis set, and plain phase-2 primal
// simplex resumes from there. Because extraction and optimality
// certification read the same updated snapshot, the warm result keeps
// the cold-equivalence guarantee: it is a pure function of the final
// basis set, bit-identical to a cold solve landing on the same basis.
//
// The warm path falls back to a cold two-phase solve (Solution.Warm
// reports which path ran) when the retained basis cannot be reused:
// no prior successful solve, a right-hand-side sign change that would
// relayout the row's slack/artificial columns, an artificial column
// still basic, a numerically singular refactorization, or a basis that
// has gone primal-infeasible under the new model. In every case the
// updated constraints stick to the Problem, so later cold solves see
// the same model.
func (s *Solver) ReSolveModel(objective []float64, updates []ConstraintUpdate) (*Solution, error) {
	p := s.p
	if len(objective) != p.numVars {
		return nil, fmt.Errorf("lp: ReSolveModel objective has %d coefficients, want %d", len(objective), p.numVars)
	}
	for _, u := range updates {
		if u.Row < 0 || u.Row >= len(p.cons) {
			return nil, fmt.Errorf("lp: ReSolveModel row %d out of range [0,%d)", u.Row, len(p.cons))
		}
		if len(u.Coeffs) != p.numVars {
			return nil, fmt.Errorf("lp: ReSolveModel row %d has %d coefficients, want %d", u.Row, len(u.Coeffs), p.numVars)
		}
	}
	warm := s.ready
	for _, u := range updates {
		c := &p.cons[u.Row]
		// A sign change on the RHS of an inequality flips the
		// normalized operator (≤ ↔ ≥), which would need a different
		// slack sign and artificial-column layout than the tableau was
		// built with — a structural change, not a re-pricing.
		if c.op != EQ && (c.rhs < 0) != (u.RHS < 0) {
			warm = false
		}
		copy(c.coeffs, u.Coeffs)
		c.rhs = u.RHS
	}
	if !warm {
		return s.coldSolve(objective)
	}
	t := &s.t
	// An artificial still basic (at zero, from a redundant row) has no
	// column in the active tableau to re-price against.
	for r := 0; r < s.m; r++ {
		if t.basis[r] >= s.ncols {
			return s.coldSolve(objective)
		}
	}
	// Rewrite the normalized snapshot rows for the updated constraints,
	// exactly as build() lays them out.
	for _, u := range updates {
		r := u.Row
		c := p.cons[r]
		row := s.a0[r*s.total : r*s.total+s.total]
		clear(row)
		copy(row, c.coeffs)
		op, b := c.op, c.rhs
		if b < 0 {
			for j := 0; j < s.ncols; j++ {
				row[j] = -row[j]
			}
			b = -b
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		s.b0[r] = b
		if s.slackCol[r] >= 0 {
			if op == LE {
				row[s.slackCol[r]] = 1
			} else {
				row[s.slackCol[r]] = -1
			}
		}
		if s.artCol[r] >= 0 {
			row[s.artCol[r]] = 1
		}
	}
	t.moved = true // the factorization was gathered from the old rows
	if !s.refactorize() {
		return s.coldSolve(objective)
	}
	// Primal feasibility of the retained basis under the new model.
	for r := 0; r < s.m; r++ {
		if t.b[r] < -eps {
			return s.coldSolve(objective)
		}
		if t.b[r] < 0 {
			t.b[r] = 0
		}
	}
	s.setObjective(objective)
	before := t.pivots
	if _, err := t.optimize(s.sobj[:t.n], s); err != nil {
		return nil, err
	}
	return s.extract(objective, t.pivots-before, true), nil
}

// refactorize rebuilds the pivoted tableau from the normalized
// snapshot under the retained basis *set*: it copies a0/b0 back into
// the tableau and runs Gauss–Jordan elimination, choosing for each
// basis column (ascending — deterministic) the not-yet-assigned row
// with the largest magnitude entry (lowest row on ties). Rows are
// thereby re-associated with basis columns; the basis set is
// unchanged. Returns false when the basis matrix is numerically
// singular under the new model. Elimination pivots are excluded from
// the warm iteration count by the caller (they re-derive the old
// vertex, they don't move it).
func (s *Solver) refactorize() bool {
	t := &s.t
	m := s.m
	copy(t.a, s.a0)
	copy(t.b, s.b0)
	bcols := s.sortBasis()
	pivots := t.pivots
	assigned := make([]bool, m)
	for k := 0; k < m; k++ {
		col := bcols[k]
		piv := -1
		best := 1e-12
		for r := 0; r < m; r++ {
			if assigned[r] {
				continue
			}
			if v := math.Abs(t.a[r*t.stride+col]); v > best {
				best = v
				piv = r
			}
		}
		if piv < 0 {
			return false
		}
		t.pivot(piv, col)
		assigned[piv] = true
	}
	t.pivots = pivots
	return true
}

// setObjective maps a problem-coordinate objective onto solver columns:
// the variables' coefficients, then zero for every slack and artificial.
func (s *Solver) setObjective(obj []float64) {
	clear(s.sobj)
	copy(s.sobj, obj[:s.p.numVars])
}

// sortBasis writes the basis columns into s.bcols in ascending order
// (insertion sort: deterministic, allocation-free, m is tiny).
func (s *Solver) sortBasis() []int {
	bcols := s.bcols
	copy(bcols, s.t.basis)
	for i := 1; i < len(bcols); i++ {
		v := bcols[i]
		j := i - 1
		for j >= 0 && bcols[j] > v {
			bcols[j+1] = bcols[j]
			j--
		}
		bcols[j+1] = v
	}
	return bcols
}

// factor makes s.lu the factorization of the current vertex and
// reports whether the basis matrix is nonsingular. It refactorizes
// only when t.moved says something changed since the last call: any
// tableau.pivot (the basis set), build (everything) or ReSolveModel's
// rewrite of a0/b0 (the model). The pivot counter cannot serve as the
// key — refactorize restores it after re-deriving the tableau.
func (s *Solver) factor() bool {
	if s.t.moved {
		s.t.moved = false
		s.luOK = s.factorize()
	}
	return s.luOK
}

// factorize computes P·B = L·U in place in s.lu, where B is a0
// restricted to the basis columns in ascending order: partial pivoting
// with lowest-row tie-break, so the factors are a pure function of the
// basis *set* and the model, never of the pivot path that reached the
// basis. Row updates walk only the nonzero columns of the pivot row —
// basis matrices here are mostly slack columns. Returns false on a
// numerically singular matrix.
func (s *Solver) factorize() bool {
	m := s.m
	A, perm, bcols := s.lu, s.perm, s.sortBasis()
	for r := 0; r < m; r++ {
		src := s.a0[r*s.total : r*s.total+s.total]
		dst := A[r*m : r*m+m]
		for k, col := range bcols {
			dst[k] = src[col]
		}
		perm[r] = r
	}
	for col := 0; col < m; col++ {
		piv := -1
		best := 1e-12
		for r := col; r < m; r++ {
			if v := math.Abs(A[r*m+col]); v > best {
				best = v
				piv = r
			}
		}
		if piv < 0 {
			return false
		}
		pr := A[col*m : col*m+m]
		if piv != col {
			sw := A[piv*m : piv*m+m]
			for j := range pr {
				pr[j], sw[j] = sw[j], pr[j]
			}
			perm[col], perm[piv] = perm[piv], perm[col]
		}
		nz := s.t.nz[:0]
		for j := col + 1; j < m; j++ {
			if pr[j] != 0 {
				nz = append(nz, j)
			}
		}
		inv := 1 / pr[col]
		for r := col + 1; r < m; r++ {
			ar := A[r*m : r*m+m]
			if ar[col] == 0 {
				continue
			}
			f := ar[col] * inv
			ar[col] = f
			for _, j := range nz {
				ar[j] -= f * pr[j]
			}
		}
	}
	return true
}

// extract materializes the optimal solution from the current basis.
//
// Rather than reading the pivoted tableau's RHS — whose low-order bits
// depend on the entire pivot history — it solves B·x_B = b0 against
// the vertex factorization (the one exactEntering just certified the
// basis with): L·z = P·b0 forward, U·x_B = z backward. The extracted
// solution is therefore a pure function of the basis *set*: a warm
// re-solve and a cold solve that end at the same basis yield
// bit-identical X. Falls back to the tableau RHS if the basis matrix
// is numerically singular.
func (s *Solver) extract(obj []float64, iters int, warm bool) *Solution {
	t := &s.t
	clear(s.xcols)
	if s.factor() && s.solvePrimal() {
		for k, col := range s.bcols {
			s.xcols[col] = s.tri[k]
		}
	} else {
		// Singular basis matrix (degenerate float corner): fall back to
		// the maintained tableau values.
		for r, bi := range t.basis {
			if bi >= 0 && bi < s.total {
				s.xcols[bi] = t.b[r]
			}
		}
	}
	x := make([]float64, s.p.numVars)
	copy(x, s.xcols)
	objVal := 0.0
	for i, v := range x {
		objVal += obj[i] * v
	}
	return &Solution{X: x, Objective: objVal, Iterations: iters, Warm: warm}
}

// solvePrimal solves B·x = b0 against s.lu, leaving in s.tri[k] the
// value of basis column bcols[k]. Both triangular solves read their
// factor row by row. Returns false on a non-finite result (an
// overflowed elimination), which the caller treats as singular.
func (s *Solver) solvePrimal() bool {
	m, A, z := s.m, s.lu, s.tri
	for r := 0; r < m; r++ {
		sum := s.b0[s.perm[r]]
		for c, l := range A[r*m : r*m+r] {
			sum -= l * z[c]
		}
		z[r] = sum
	}
	for r := m - 1; r >= 0; r-- {
		row := A[r*m : r*m+m]
		sum := z[r]
		for c := r + 1; c < m; c++ {
			sum -= row[c] * z[c]
		}
		z[r] = sum / row[r]
		if math.IsNaN(z[r]) || math.IsInf(z[r], 0) {
			return false
		}
	}
	return true
}

// exactEntering certifies optimality against the original constraint
// data: with the vertex factorization P·B = L·U it solves Bᵀ·y = c_B
// for the duals, recomputes every active column's reduced cost
// c_j − yᵀ·a0_j, and returns the Bland-smallest column that still
// improves, or −1 when the basis is genuinely optimal (or the basis
// matrix is numerically singular, in which case the maintained
// tableau's verdict stands).
//
// The maintained tableau is B⁻¹A as accumulated over the whole pivot
// history — including pivots from earlier warm re-solves — and its
// low-order drift can reach the eps threshold on ill-scaled problems.
// Certifying against a0 makes the accepted basis independent of the
// pivot path, which is what lets a warm re-solve land on exactly the
// basis a cold solve finds.
func (s *Solver) exactEntering(obj []float64) int {
	t := &s.t
	m := s.m
	if m == 0 || !s.factor() {
		return -1
	}
	// Bᵀ = Uᵀ·Lᵀ·P: solve Uᵀ·a = c_B (forward), Lᵀ·w = a (backward),
	// then y[perm[r]] = w[r]. Both solves run column-oriented over the
	// transposed factor, i.e. along the rows lu is stored by, and skip
	// the zero multipliers a slack-heavy c_B is full of.
	A, v := s.lu, s.tri
	for k, col := range s.bcols {
		v[k] = 0
		if col < len(obj) {
			v[k] = obj[col]
		}
	}
	for c := 0; c < m; c++ {
		row := A[c*m : c*m+m]
		a := v[c] / row[c]
		v[c] = a
		if a == 0 {
			continue
		}
		for r := c + 1; r < m; r++ {
			v[r] -= row[r] * a
		}
	}
	for c := m - 1; c > 0; c-- {
		w := v[c]
		if w == 0 {
			continue
		}
		for r, l := range A[c*m : c*m+c] {
			v[r] -= l * w
		}
	}
	y := s.y
	for r, pr := range s.perm {
		y[pr] = v[r]
	}
	// Drift-free reduced costs, accumulated row-major over a0 (for each
	// column the rows are still subtracted in ascending order), then
	// Bland's scan over the active columns.
	red := s.xcols[:t.n] // xcols is free outside extract; obj spans t.n
	copy(red, obj)
	for r, yr := range y {
		if yr == 0 {
			continue
		}
		for j, a := range s.a0[r*s.total : r*s.total+t.n] {
			red[j] -= yr * a
		}
	}
	return firstImproving(red)
}

// firstImproving returns the smallest column whose reduced cost is
// below −eps (Bland's entering rule), or −1.
func firstImproving(red []float64) int {
	for j, v := range red {
		if v < -eps {
			return j
		}
	}
	return -1
}

// tableau is the dense simplex state: a·x = b with a current basis.
// The matrix is one flat row-major slab; row r occupies
// a[r*stride : r*stride+stride], of which only the first n columns are
// active (the phase-1 → phase-2 transition shrinks n below stride).
type tableau struct {
	m, n   int
	stride int
	a      []float64
	b      []float64
	basis  []int
	// red is the maintained reduced-cost row r_j = c_j − c_B·B⁻¹A_j
	// over the active columns.
	red []float64
	// pivots counts Gauss–Jordan pivots across all optimize calls.
	pivots int
	// moved is set by every pivot (and by the Solver when it rebuilds or
	// rewrites the model): the vertex is no longer the one the Solver
	// last factorized. Solver.factor clears it.
	moved bool
	// nz is scratch for the nonzero columns of a pivot row.
	nz []int
}

// row returns the full backing row r (stride wide).
func (t *tableau) row(r int) []float64 {
	return t.a[r*t.stride : r*t.stride+t.stride]
}

// arow returns the active columns of row r.
func (t *tableau) arow(r int) []float64 {
	return t.a[r*t.stride : r*t.stride+t.n]
}

// pivot performs a Gauss–Jordan pivot on (row, col) and updates basis.
// Only active columns are touched, and of those only the pivot row's
// nonzeros: a sizing LP's pivot row is under a third full, and a zero
// there leaves the column unchanged in every other row.
func (t *tableau) pivot(row, col int) {
	pr := t.arow(row)
	inv := 1 / pr[col]
	nz := t.nz[:0]
	for j, v := range pr {
		if v != 0 {
			pr[j] = v * inv
			nz = append(nz, j)
		}
	}
	t.b[row] *= inv
	pr[col] = 1 // kill residual rounding
	for r := 0; r < t.m; r++ {
		if r == row {
			continue
		}
		ar := t.arow(r)
		f := ar[col]
		if f == 0 {
			continue
		}
		for _, j := range nz {
			ar[j] -= f * pr[j]
		}
		ar[col] = 0
		t.b[r] -= f * t.b[row]
	}
	t.basis[row] = col
	t.pivots++
	t.moved = true
}

// recomputeReduced rebuilds the reduced-cost row and the objective
// value c_B·b from scratch — the numerically self-correcting path,
// run at entry, every refreshEvery pivots, and before any optimality
// claim. Allocation-free: it scans the basis directly instead of
// materializing a c_B vector.
func (t *tableau) recomputeReduced(obj []float64) float64 {
	red := t.red[:t.n]
	for j := range red {
		if j < len(obj) {
			red[j] = obj[j]
		} else {
			red[j] = 0
		}
	}
	z := 0.0
	for r := 0; r < t.m; r++ {
		bi := t.basis[r]
		var c float64
		if bi >= 0 && bi < len(obj) {
			c = obj[bi]
		}
		if c == 0 {
			continue
		}
		z += c * t.b[r]
		row := t.arow(r)
		for j := range row {
			red[j] -= c * row[j]
		}
	}
	return z
}

// optimize runs primal simplex with Bland's rule on the given
// objective, assuming the current basis is feasible. Returns the
// optimal objective value.
//
// Reduced costs are maintained incrementally across pivots (an O(n)
// row update using the normalized pivot row) and rebuilt from the
// basis every refreshEvery pivots for numerical hygiene. Optimality is
// only ever declared after a fresh rebuild confirms no entering column
// exists — and, when cert is non-nil, after cert.exactEntering
// re-certifies against the original (never-pivoted) constraint data —
// so drift can cost extra iterations but never a wrong answer. Bland's
// rule (smallest entering index, smallest basis index on ratio ties)
// is preserved exactly, keeping the anti-cycling guarantee.
func (t *tableau) optimize(obj []float64, cert *Solver) (float64, error) {
	red := t.red[:t.n]
	z := t.recomputeReduced(obj)
	sinceRefresh := 0
	const maxIter = 100000
	for iter := 0; iter < maxIter; iter++ {
		enter := firstImproving(red)
		if enter < 0 {
			// No candidate under the maintained costs: confirm against a
			// fresh rebuild before declaring optimality — unless no pivot
			// has run since the last one, which would rebuild the same row.
			if sinceRefresh > 0 {
				z = t.recomputeReduced(obj)
				sinceRefresh = 0
				enter = firstImproving(red)
			}
			if enter < 0 && cert != nil {
				// The maintained tableau says optimal; make the verdict
				// drift-free before accepting it.
				enter = cert.exactEntering(obj)
			}
			if enter < 0 {
				return z, nil
			}
		}
		// Leaving row: min ratio b_r / a_r,enter over positive entries;
		// ties broken by smallest basis index (Bland).
		leave := -1
		bestRatio := math.Inf(1)
		for r := 0; r < t.m; r++ {
			arj := t.a[r*t.stride+enter]
			if arj > eps {
				ratio := t.b[r] / arj
				if ratio < bestRatio-eps ||
					(ratio < bestRatio+eps && (leave < 0 || t.basis[r] < t.basis[leave])) {
					bestRatio = ratio
					leave = r
				}
			}
		}
		if leave < 0 {
			return 0, ErrUnbounded
		}
		f := red[enter]
		t.pivot(leave, enter)
		sinceRefresh++
		if sinceRefresh >= refreshEvery {
			z = t.recomputeReduced(obj)
			sinceRefresh = 0
		} else {
			// Objective-row pivot update: r′ = r − r_enter·(pivot row),
			// z′ = z + r_enter·b̄_leave, using the post-normalization row.
			pr := t.arow(leave)
			for j := range red {
				red[j] -= f * pr[j]
			}
			red[enter] = 0
			z += f * t.b[leave]
		}
	}
	return 0, errors.New("lp: iteration limit exceeded")
}
