package pareto

// End-to-end integration: the complete §IV deployment in one test —
// live store instances, the full plan pipeline, pipelined placement,
// barrier-separated phases, distributed mining on the placed data,
// rebalance after re-planning, and snapshot-persisted recovery.

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pareto/internal/cluster"
	"pareto/internal/core"
	"pareto/internal/datasets"
	"pareto/internal/energy"
	"pareto/internal/kvstore"
	"pareto/internal/partitioner"
	"pareto/internal/pivots"
	"pareto/internal/workloads/apriori"
)

func startStores(t *testing.T, n int, snapshotDir string) []kvstore.KV {
	t.Helper()
	clients := make([]kvstore.KV, n)
	for i := 0; i < n; i++ {
		srv := kvstore.NewServer(nil)
		if snapshotDir != "" {
			if err := srv.EnableSnapshot(filepath.Join(snapshotDir, fmt.Sprintf("node%d.pkvs", i))); err != nil {
				t.Fatal(err)
			}
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		c, err := kvstore.Dial(addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients[i] = c
	}
	return clients
}

func TestIntegrationFullPipelineOverKVStores(t *testing.T) {
	const p = 4
	cfg := datasets.RCV1Like(0.001)
	docs, _, err := datasets.GenerateText(cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := pivots.NewTextCorpus(docs, cfg.VocabSize)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.PaperCluster(p, energy.DefaultPanel(), 172, 48)
	if err != nil {
		t.Fatal(err)
	}
	const support = 0.1
	profile := func(indices []int) (float64, error) {
		txns := make([]apriori.Transaction, len(indices))
		for k, i := range indices {
			txns[k] = corpus.Docs[i].Terms
		}
		pr, err := apriori.MineLocal(apriori.NewPartition(txns), support, 2)
		if err != nil {
			return 0, err
		}
		return pr.Cost, nil
	}
	plan, err := core.BuildPlan(corpus, cl, profile, core.Config{Strategy: core.HetAware, TraceOffset: 12 * 3600})
	if err != nil {
		t.Fatal(err)
	}

	// Place onto live stores with pipelining.
	clients := startStores(t, p, "")
	st, err := partitioner.NewKVStoreKV(clients, 64, "itest")
	if err != nil {
		t.Fatal(err)
	}
	if err := partitioner.Place(corpus, plan.Assign, st); err != nil {
		t.Fatal(err)
	}

	// Workers: read own partition, mine locally, barrier, then verify
	// the union prunes to the same frequent count everywhere.
	barrierHost := clients[0]
	var mu sync.Mutex
	locals := make([]*apriori.PartitionResult, p)
	var wg sync.WaitGroup
	errCh := make(chan error, p)
	for j := 0; j < p; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			b, err := kvstore.NewBarrier(barrierHost, "itest-phases", p)
			if err != nil {
				errCh <- err
				return
			}
			records, err := st.ReadPartition(j)
			if err != nil {
				errCh <- err
				return
			}
			txns := make([]apriori.Transaction, 0, len(records))
			for _, rec := range records {
				d, rest, err := pivots.DecodeTextRecord(rec)
				if err != nil {
					errCh <- err
					return
				}
				if len(rest) != 0 {
					errCh <- fmt.Errorf("trailing bytes in record")
					return
				}
				txns = append(txns, d.Terms)
			}
			pr, err := apriori.MineLocal(apriori.NewPartition(txns), support, 2)
			if err != nil {
				errCh <- err
				return
			}
			mu.Lock()
			locals[j] = pr
			mu.Unlock()
			errCh <- b.Await()
		}(j)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	cands := apriori.GlobalCandidates(locals)
	if len(cands) == 0 {
		t.Fatal("no candidates mined from placed partitions")
	}

	// The distributed result over the *placed* partitions must match
	// the in-memory reference run.
	parts := make([][]apriori.Transaction, p)
	for j := 0; j < p; j++ {
		for _, r := range plan.Assign.Parts[j] {
			parts[j] = append(parts[j], corpus.Docs[r].Terms)
		}
	}
	ref, err := apriori.MineDistributed(parts, support, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != ref.Candidates {
		t.Errorf("placed-data candidates %d, reference %d", len(cands), ref.Candidates)
	}
}

func TestIntegrationRebalanceAndRecovery(t *testing.T) {
	const p = 3
	cfg := datasets.RCV1Like(0.0006)
	docs, _, err := datasets.GenerateText(cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := pivots.NewTextCorpus(docs, cfg.VocabSize)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.PaperCluster(p, energy.DefaultPanel(), 172, 48)
	if err != nil {
		t.Fatal(err)
	}
	profile := func(indices []int) (float64, error) {
		var c float64
		for _, i := range indices {
			c += 500 * float64(corpus.Weight(i))
		}
		return c, nil
	}
	plan, err := core.BuildPlan(corpus, cl, profile, core.Config{Strategy: core.HetAware})
	if err != nil {
		t.Fatal(err)
	}
	// Re-plan for energy and rebalance with minimal moves.
	plan2, err := core.BuildPlan(corpus, cl, profile, core.Config{Strategy: core.HetEnergyAware, Alpha: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	rebalanced, moves, err := partitioner.Rebalance(plan.Assign, plan2.Assign.Sizes())
	if err != nil {
		t.Fatal(err)
	}
	if err := rebalanced.Validate(corpus.Len()); err != nil {
		t.Fatal(err)
	}
	// The minimum is what the shrinking partitions shed: Σ max(0, old − new).
	minMoves := 0
	newSizes := plan2.Assign.Sizes()
	for j, old := range plan.Assign.Sizes() {
		if old > newSizes[j] {
			minMoves += old - newSizes[j]
		}
	}
	if len(moves) != minMoves {
		t.Errorf("%d moves, want the minimum %d", len(moves), minMoves)
	}

	// Place, snapshot, and reload through server persistence.
	dir := t.TempDir()
	clients := startStores(t, p, dir)
	st, err := partitioner.NewKVStoreKV(clients, 32, "rtest")
	if err != nil {
		t.Fatal(err)
	}
	if err := partitioner.Place(corpus, rebalanced, st); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < p; j++ {
		rep, err := clients[j%p].Do("SAVE")
		if err != nil || rep.Err() != nil {
			t.Fatalf("SAVE on %d: %v %v", j, err, rep.Err())
		}
	}
	// Fresh engine loading node 0's snapshot must hold its partitions.
	e := kvstore.NewEngine()
	if _, err := e.LoadSnapshotFileMark(filepath.Join(dir, "node0.pkvs")); err != nil {
		t.Fatal(err)
	}
	rep := e.Do("LLEN", []byte("rtest:0"))
	if rep.Int != int64(len(rebalanced.Parts[0])) {
		t.Errorf("snapshot partition 0 has %d records, want %d", rep.Int, len(rebalanced.Parts[0]))
	}
}
