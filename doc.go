// Package pareto is a heterogeneity- and green-energy-aware data
// partitioning framework for distributed analytics, reproducing
// Chakrabarti, Parthasarathy & Stewart, "A Pareto Framework for Data
// Analytics on Heterogeneous Systems" (ICPP 2017).
//
// Given a dataset (trees, graphs or text), a heterogeneous cluster
// model, and an analytics workload, the framework
//
//  1. stratifies the data by content (min-wise independent linear
//     permutation sketches + compositeKModes clustering),
//  2. learns a per-node execution-time model by running the actual
//     workload on small representative progressive samples,
//  3. estimates each node's dirty-power rate from solar traces,
//  4. sizes partitions by solving a scalarized two-objective linear
//     program — minimize α·makespan + (1−α)·dirty energy — whose
//     solutions are Pareto-optimal, and
//  5. places records into partitions either as stratified
//     representative samples (for pattern mining) or grouped by
//     similarity (for compression), on memory, disk, or a
//     Redis-compatible store served by this module.
//
// The root package declares nothing; it holds the repository-wide
// tests. Programs call the components under internal/ directly:
//
//	corpus, err := pivots.NewTextCorpus(docs, vocab)
//	cl, err := cluster.PaperCluster(4, energy.DefaultPanel(), 172, 48)
//	plan, err := core.BuildPlan(corpus, cl, profile, core.Config{Strategy: core.HetAware})
//	result, err := cl.Run(0, plan.Assign.Parts, job)
//	err = partitioner.Place(corpus, plan.Assign, partitioner.NewMemoryStore())
//
// See examples/ for complete programs and DESIGN.md for the paper
// mapping.
package pareto
