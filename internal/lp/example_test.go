package lp_test

import (
	"fmt"

	"pareto/internal/lp"
)

// Solve the makespan-balancing LP the Pareto modeler emits: two nodes
// with speeds 1 and 2 (slopes 1 and 2), 30 units of data.
func ExampleSolver_Solve() {
	// Variables: x1, x2, v. Minimize v.
	p, err := lp.NewProblem([]float64{0, 0, 1})
	if err != nil {
		panic(err)
	}
	// v ≥ 1·x1  and  v ≥ 2·x2.
	if err := p.AddConstraint([]float64{1, 0, -1}, lp.LE, 0); err != nil {
		panic(err)
	}
	if err := p.AddConstraint([]float64{0, 2, -1}, lp.LE, 0); err != nil {
		panic(err)
	}
	// x1 + x2 = 30.
	if err := p.AddConstraint([]float64{1, 1, 0}, lp.EQ, 30); err != nil {
		panic(err)
	}
	sol, err := p.NewSolver().Solve()
	if err != nil {
		panic(err)
	}
	fmt.Printf("x1=%.0f x2=%.0f makespan=%.0f\n", sol.X[0], sol.X[1], sol.X[2])
	// Output:
	// x1=20 x2=10 makespan=20
}
