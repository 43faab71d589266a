// Geo-distributed example: the deployment style of paper §II, where a
// job may be scheduled onto any subset of servers across regions to
// maximize green energy use. A 16-node pool spans the four datacenter
// sites; opt.SelectNodes picks which 8 should host partitions at
// different α values, and frontier.Exact enumerates the full
// time/energy frontier of the pool.
//
//	go run ./examples/geodistributed
package main

import (
	"fmt"
	"log"

	"pareto/internal/cluster"
	"pareto/internal/energy"
	"pareto/internal/frontier"
	"pareto/internal/opt"
	"pareto/internal/sampling"
)

func main() {
	// A 16-node pool: the paper's four machine types across four sites.
	pool, err := cluster.PaperCluster(16, energy.DefaultPanel(), 172, 48)
	if err != nil {
		log.Fatal(err)
	}
	const offset = 12 * 3600 // schedule the job at local noon
	const total = 2_000_000  // data units to place

	// Per-node models: time slope from relative speed; dirty rate from
	// each node's own solar trace (in a real run these come from the
	// profiling pipeline).
	models := make([]opt.NodeModel, pool.P())
	for i, n := range pool.Nodes {
		models[i] = opt.NodeModel{
			Time:      sampling.LinearFit{Slope: 1e-6 / n.Speed * 4},
			DirtyRate: energy.DirtyRate(n.Power.Watts(), n.Trace, offset, 3600),
		}
	}

	fmt.Println("selecting 8 of 16 pool nodes:")
	for _, alpha := range []float64{1.0, 0.99, 0.5} {
		chosen, plan, err := opt.SelectNodes(models, total, 8, alpha)
		if err != nil {
			log.Fatal(err)
		}
		var names []string
		for _, c := range chosen {
			names = append(names, fmt.Sprintf("%d(%s,%.0fW dirty)", c,
				pool.Nodes[c].Location.Name, models[c].DirtyRate))
		}
		fmt.Printf("\nα=%.2f → makespan %.2fs, dirty %.0f J\n", alpha, plan.Makespan, plan.DirtyEnergy)
		for _, n := range names {
			fmt.Printf("   node %s\n", n)
		}
	}

	// Exact Pareto frontier of the full pool.
	res, err := frontier.Exact(models, total, frontier.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexact frontier of the 16-node pool (%d vertices):\n", len(res.Points))
	for _, p := range res.Points {
		fmt.Printf("  α=%-8.4g time %6.2fs  dirty %8.0f J\n", p.Alpha, p.Makespan, p.DirtyEnergy)
	}
}
