// Graph compression example: the paper's Figure 4 workload in
// miniature. Compresses a UK-like webgraph with the webgraph codec
// under similar-together placement, and contrasts placement schemes:
// grouping similar adjacency lists yields lower-entropy partitions and
// a better compression ratio at identical partition sizes.
//
//	go run ./examples/graphcompression
package main

import (
	"fmt"
	"log"

	"pareto/internal/bench"
	"pareto/internal/cluster"
	"pareto/internal/core"
	"pareto/internal/datasets"
	"pareto/internal/energy"
	"pareto/internal/pivots"
)

func main() {
	g, _, err := datasets.GenerateGraph(datasets.UKLike(0.0006))
	if err != nil {
		log.Fatal(err)
	}
	corpus, err := pivots.NewGraphCorpus(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("UK-like webgraph: %d vertices, %d edges\n\n", g.NumVertices(), g.NumEdges())

	cl, err := cluster.PaperCluster(8, energy.DefaultPanel(), 172, 48)
	if err != nil {
		log.Fatal(err)
	}
	workload := &bench.GraphCompression{Graph: corpus}

	// The three strategies (similar-together placement, α = 0.99).
	opts := bench.DefaultOptions()
	opts.Alpha = 0.99
	rows, err := bench.CompareStrategies(workload, cl, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(bench.FormatRows(rows))

	// Placement-scheme ablation at equal sizes: similarity grouping vs
	// representative mixing.
	for _, scheme := range []struct {
		name string
		s    core.Config
	}{
		{"similar-together", core.Config{Strategy: core.Stratified, Scheme: workload.Scheme()}},
		{"representative", core.Config{Strategy: core.Stratified, Scheme: 0}},
	} {
		plan, err := core.BuildPlan(corpus, cl, workload.Profile, scheme.s)
		if err != nil {
			log.Fatal(err)
		}
		_, quality, err := workload.Run(cl, plan.Assign, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("placement %-17s compression ratio %.3f\n", scheme.name, quality["compression-ratio"])
	}
}
