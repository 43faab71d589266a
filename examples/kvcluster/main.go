// KV cluster example: the paper's §IV deployment in miniature. Starts
// four kvstore server instances (one per "node"), plans a Het-Aware
// partitioning, places the partitions onto the stores with pipelined
// writes, synchronizes the phases with the fetch-and-increment global
// barrier, and reads one partition back.
//
//	go run ./examples/kvcluster
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"pareto/internal/cluster"
	"pareto/internal/core"
	"pareto/internal/datasets"
	"pareto/internal/energy"
	"pareto/internal/kvstore"
	"pareto/internal/partitioner"
	"pareto/internal/pivots"
)

func main() {
	// One store per cluster node — never "cluster mode", because the
	// framework must control which partition lands where.
	const p = 4
	var servers []*kvstore.Server
	var clients []kvstore.KV
	for i := 0; i < p; i++ {
		srv := kvstore.NewServer(nil)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		servers = append(servers, srv)
		c, err := kvstore.Dial(addr, time.Second)
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		clients = append(clients, c)
		fmt.Printf("node %d store listening on %s\n", i, addr)
	}

	// Dataset and plan.
	cfg := datasets.RCV1Like(0.0008)
	docs, _, err := datasets.GenerateText(cfg)
	if err != nil {
		log.Fatal(err)
	}
	corpus, err := pivots.NewTextCorpus(docs, cfg.VocabSize)
	if err != nil {
		log.Fatal(err)
	}
	cl, err := cluster.PaperCluster(p, energy.DefaultPanel(), 172, 48)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := core.BuildPlan(corpus, cl, func(indices []int) (float64, error) {
		var c float64
		for _, i := range indices {
			c += 1000 * float64(corpus.Weight(i))
		}
		return c, nil
	}, core.Config{Strategy: core.HetAware})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("planned sizes: %v\n", plan.Assign.Sizes())

	// Worker phase structure, separated by the global barrier exactly
	// as §IV separates pivot extraction / sketching / clustering /
	// placement. Worker j talks to its own store; the barrier counter
	// lives on store 0.
	var wg sync.WaitGroup
	for j := 0; j < p; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			barrier, err := kvstore.NewBarrier(clients[0], "phases", p)
			if err != nil {
				log.Fatal(err)
			}
			// Phase 1: place this node's partition (pipelined writes).
			st, err := partitioner.NewKVStoreKV([]kvstore.KV{clients[j]}, 64, fmt.Sprintf("node%d", j))
			if err != nil {
				log.Fatal(err)
			}
			recs := make([][]byte, 0, len(plan.Assign.Parts[j]))
			for _, r := range plan.Assign.Parts[j] {
				recs = append(recs, corpus.AppendRecord(nil, r))
			}
			if err := st.WritePartition(0, recs); err != nil {
				log.Fatal(err)
			}
			if err := barrier.Await(); err != nil {
				log.Fatal(err)
			}
			// Phase 2: every node's data is in place; read our share
			// back and verify it decodes.
			back, err := st.ReadPartition(0)
			if err != nil {
				log.Fatal(err)
			}
			for _, rec := range back {
				if _, _, err := pivots.DecodeTextRecord(rec); err != nil {
					log.Fatalf("node %d: corrupt record: %v", j, err)
				}
			}
			if err := barrier.Await(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("node %d verified %d records\n", j, len(back))
		}(j)
	}
	wg.Wait()
	fmt.Println("all phases complete; partitions live on their stores")
}
