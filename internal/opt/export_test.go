package opt

// PaperNodes hands the in-package fixture to the external contract
// tests (package opt_test), which must import internal/frontier and so
// cannot live in package opt.
var PaperNodes = paperNodes

// Dominates reports whether plan a Pareto-dominates plan b in
// (makespan, dirty energy): no worse in both, strictly better in at
// least one. It is the predicate this package's tests assert frontiers
// with; the frontier enumerators filter with internal/frontier's N-axis
// DominatesVec.
func Dominates(a, b *Plan) bool {
	const tol = 1e-9
	noWorse := a.Makespan <= b.Makespan+tol && a.DirtyEnergy <= b.DirtyEnergy+tol
	better := a.Makespan < b.Makespan-tol || a.DirtyEnergy < b.DirtyEnergy-tol
	return noWorse && better
}
