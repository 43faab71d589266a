// Quickstart: partition a small text corpus across a heterogeneous
// 4-node cluster and compare the Stratified baseline with the
// Het-Aware plan.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"pareto/internal/cluster"
	"pareto/internal/core"
	"pareto/internal/datasets"
	"pareto/internal/energy"
	"pareto/internal/partitioner"
	"pareto/internal/pivots"
)

func main() {
	// 1. A dataset: a synthetic RCV1-like corpus with latent topics.
	cfg := datasets.RCV1Like(0.001)
	docs, _, err := datasets.GenerateText(cfg)
	if err != nil {
		log.Fatal(err)
	}
	corpus, err := pivots.NewTextCorpus(docs, cfg.VocabSize)
	if err != nil {
		log.Fatal(err)
	}

	// 2. A cluster: the paper's 4 machine types (speeds 4x/3x/2x/1x,
	// 440/345/250/155 W) with solar traces from 4 datacenter sites.
	cl, err := cluster.PaperCluster(4, energy.DefaultPanel(), 172, 48)
	if err != nil {
		log.Fatal(err)
	}
	const offset = 12 * 3600 // start the job at local noon

	// 3. A workload model: here simply "cost proportional to document
	// size". The framework profiles it on stratified progressive
	// samples to learn each node's time model.
	workload := func(indices []int) (float64, error) {
		var cost float64
		for _, i := range indices {
			cost += 1500 * float64(corpus.Weight(i))
		}
		return cost, nil
	}
	run := func(node int, indices []int) (cluster.TaskReport, error) {
		cost, err := workload(indices)
		return cluster.TaskReport{Cost: cost}, err
	}

	baseline, err := core.BuildPlan(corpus, cl, nil, core.Config{Strategy: core.Stratified, TraceOffset: offset})
	if err != nil {
		log.Fatal(err)
	}
	hetAware, err := core.BuildPlan(corpus, cl, workload, core.Config{Strategy: core.HetAware, TraceOffset: offset})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("stratified baseline sizes: %v\n", baseline.Assign.Sizes())
	fmt.Printf("het-aware sizes:          %v\n", hetAware.Assign.Sizes())

	baseRes, err := cl.Run(offset, baseline.Assign.Parts, run)
	if err != nil {
		log.Fatal(err)
	}
	hetRes, err := cl.Run(offset, hetAware.Assign.Parts, run)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline:  makespan %.3fs, dirty energy %.1f J\n", baseRes.Makespan, baseRes.DirtyEnergy)
	fmt.Printf("het-aware: makespan %.3fs, dirty energy %.1f J\n", hetRes.Makespan, hetRes.DirtyEnergy)
	fmt.Printf("speedup: %.0f%%\n", 100*(1-hetRes.Makespan/baseRes.Makespan))

	// 4. Place the winning plan into an in-memory store (swap in
	// partitioner.NewDiskStore or NewKVStoreKV for real deployments).
	st := partitioner.NewMemoryStore()
	if err := partitioner.Place(corpus, hetAware.Assign, st); err != nil {
		log.Fatal(err)
	}
	recs, err := st.ReadPartition(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partition 0 holds %d serialized records\n", len(recs))
}
