package lp

import "testing"

// Test-only exports for sizing_test.go, which lives in package lp_test
// because it needs internal/opt and internal/frontier — importers of
// this package.

// CheckOptimal runs the optimality oracle on a result of s under obj.
func CheckOptimal(t testing.TB, s *Solver, obj []float64, sol *Solution) {
	t.Helper()
	checkOptimal(t, s.p, obj, sol, s.Basis())
}

// CheckAgainstReference holds sol.X against the Gauss–Jordan reference
// extraction at s's basis and returns the reference.
func CheckAgainstReference(t testing.TB, s *Solver, sol *Solution) []float64 {
	t.Helper()
	return checkAgainstReference(t, s, sol)
}

// Basis returns a copy of the current basis assignment (solver column
// basic in each row), for introspection and tests.
func (s *Solver) Basis() []int {
	if !s.built {
		return nil
	}
	out := make([]int, s.m)
	copy(out, s.t.basis)
	return out
}
