package bench

import (
	"fmt"

	"pareto/internal/cluster"
	"pareto/internal/sim"
	"pareto/internal/workloads/apriori"
)

// StealingResult compares the idealized work-stealing strawman against
// the framework on the text-mining workload.
type StealingResult struct {
	// Chunks is the number of work-stealing chunks.
	Chunks int
	// TimeSec is the stealing schedule's makespan (both phases).
	TimeSec float64
	// DirtyJ is its dirty energy.
	DirtyJ float64
	// Candidates is the global candidate count its fragmentation
	// produced (versus the framework's stratified partitions).
	Candidates int
}

// stealingSchedule simulates an idealized work-stealing execution of
// the chunks on cl: every chunk is queued at the job's start and
// sim.GreedyStealing hands the next one to whichever node frees up
// first.
func stealingSchedule(cl *cluster.Cluster, chunkCosts []float64, offset float64) (*sim.Result, error) {
	tasks := make([]sim.Task, len(chunkCosts))
	for i, cost := range chunkCosts {
		tasks[i] = sim.Task{Cost: cost, Pin: -1}
	}
	return sim.Run(sim.Config{Cluster: cl, Offset: offset, Policy: &sim.GreedyStealing{}}, tasks)
}

// RunWorkStealingMining executes the partitioned text-mining job under
// work stealing: the corpus is pre-split payload-obliviously (round
// robin, as a generic runtime would) into chunksPerNode×P chunks, each
// chunk is mined locally (phase 1), then every chunk runs the global
// candidate count pass (phase 2); both phases are scheduled greedily
// onto the heterogeneous nodes.
//
// Because the Savasere scheme's local support threshold scales with
// chunk size, fragmenting the data into more, smaller,
// payload-oblivious chunks manufactures locally-frequent-but-globally-
// rare patterns — work stealing balances machine load while inflating
// the work itself (paper §I).
func RunWorkStealingMining(w *TextMining, cl *cluster.Cluster, chunksPerNode int, offset float64) (*StealingResult, error) {
	if chunksPerNode < 1 {
		return nil, fmt.Errorf("bench: chunksPerNode %d", chunksPerNode)
	}
	n := w.Docs.Len()
	nChunks := chunksPerNode * cl.P()
	if nChunks > n {
		nChunks = n
	}
	chunks := make([][]apriori.Transaction, nChunks)
	for i := 0; i < n; i++ {
		c := i % nChunks
		chunks[c] = append(chunks[c], w.Docs.Docs[i].Terms)
	}
	// Phase 1: local mining per chunk (real algorithm, real costs).
	costs1 := make([]float64, nChunks)
	locals := make([]*apriori.PartitionResult, nChunks)
	for ci, chunk := range chunks {
		if len(chunk) == 0 {
			continue
		}
		pr, err := apriori.MineLocal(chunk, w.SupportFrac, w.MaxLen)
		if err != nil {
			return nil, err
		}
		locals[ci] = pr
		costs1[ci] = pr.Cost
	}
	res1, err := stealingSchedule(cl, costs1, offset)
	if err != nil {
		return nil, err
	}
	var nonNil []*apriori.PartitionResult
	for _, l := range locals {
		if l != nil {
			nonNil = append(nonNil, l)
		}
	}
	cands := apriori.GlobalCandidates(nonNil)
	// Phase 2: count pass per chunk.
	costs2 := make([]float64, nChunks)
	for ci, chunk := range chunks {
		if len(chunk) == 0 {
			continue
		}
		_, cost := apriori.CountPass(chunk, cands)
		costs2[ci] = cost
	}
	res2, err := stealingSchedule(cl, costs2, offset+res1.Makespan)
	if err != nil {
		return nil, err
	}
	return &StealingResult{
		Chunks:     nChunks,
		TimeSec:    res1.Makespan + res2.Makespan,
		DirtyJ:     res1.DirtyEnergy + res2.DirtyEnergy,
		Candidates: len(cands),
	}, nil
}
