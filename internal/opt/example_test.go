package opt_test

import (
	"fmt"

	"pareto/internal/opt"
	"pareto/internal/sampling"
)

// Size partitions for a two-node cluster where node 0 is twice as fast
// but fully grid-powered, and node 1 is slower but fully solar-covered.
func ExampleOptimize() {
	nodes := []opt.NodeModel{
		{Time: sampling.LinearFit{Slope: 0.001}, DirtyRate: 400}, // fast, dirty
		{Time: sampling.LinearFit{Slope: 0.002}, DirtyRate: 0},   // slow, green
	}
	hetAware, err := opt.Optimize(nodes, 30000, 1.0, opt.Constraints{})
	if err != nil {
		panic(err)
	}
	greenLeaning, err := opt.Optimize(nodes, 30000, 0.99, opt.Constraints{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("alpha=1.00: sizes=%v dirty=%.0f J\n", hetAware.Sizes, hetAware.DirtyEnergy)
	fmt.Printf("alpha=0.99: sizes=%v dirty=%.0f J\n", greenLeaning.Sizes, greenLeaning.DirtyEnergy)
	// Output:
	// alpha=1.00: sizes=[20000 10000] dirty=8000 J
	// alpha=0.99: sizes=[0 30000] dirty=0 J
}
