package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"pareto/internal/bench"
	"pareto/internal/cluster"
	"pareto/internal/core"
	"pareto/internal/datasets"
	"pareto/internal/kvstore"
	"pareto/internal/parallel"
	"pareto/internal/partitioner"
	"pareto/internal/pivots"
	"pareto/internal/strata"
	"pareto/internal/telemetry"
	"pareto/internal/workloads/lz77"
)

// LZ77 program configuration.
const (
	lzNodes   = 4
	lzStrata  = 16
	lzMaxIter = 6
)

var lzWorkload = workload{
	name:  wLZ,
	why:   "Storage-bound: text_mining_dist's kvstore/partitioner layer used durably (AOF group commit, fsync, crash, replay) beside plain reads; planning sits in set-up, so the store is half of a repetition.",
	warm:  true,
	reps:  func(sz sizes, seconds int) int { return scaled(sz.LZReps, seconds, minReps) },
	setup: setupLZ,
}

type lzUnit struct {
	r      *run
	corpus *pivots.GraphCorpus
	cl     *cluster.Cluster
	w      *bench.LZ77Compression
	// assignA is the Stratified (equal sizes) placement written first;
	// planB the Het-Aware plan whose sizes it is rebalanced to. assignB
	// is Rebalance(A→B)'s assignment and changed the partitions it
	// touched.
	planB            *core.Plan
	assignA, assignB *partitioner.Assignment
	moves            int
	changed          []int

	reg     *telemetry.Registry // servers' registry in the traced pass
	srv     *servers
	clients []*kvstore.Client
	store   *storeWrapper
	gen     int // server generation: one AOF directory each

	firstRatio float64
	before     *telemetry.Snapshot
}

func setupLZ(r *run) (unit, error) {
	gen := datasets.UKLike(r.sz.LZScale)
	gen.Seed = r.seed
	g, _, err := datasets.GenerateGraph(gen)
	if err != nil {
		return nil, err
	}
	corpus, err := pivots.NewGraphCorpusParallel(g, r.workers)
	if err != nil {
		return nil, err
	}
	cl, err := paperCluster(lzNodes)
	if err != nil {
		return nil, err
	}
	u := &lzUnit{r: r, corpus: corpus, cl: cl, w: &bench.LZ77Compression{Data: corpus, Cfg: lz77.Config{}},
		store: &storeWrapper{r: r, prefix: "kvstore"}}
	if r.traced {
		u.reg = telemetry.NewRegistry()
		cl.Telemetry = telemetry.NewRegistry()
	}
	// Planning is set-up here, so k-modes is capped well short of
	// convergence: similar-together placement needs coarse strata only.
	cfg := core.Config{
		Strategy: core.HetAware, Scheme: partitioner.SimilarTogether,
		Stratifier: strata.StratifierConfig{Cluster: strata.Config{K: lzStrata, L: 3, MaxIter: lzMaxIter, Seed: kmodesSeed}, Seed: stratSeed},
		SampleSeed: sampleSeed, TraceOffset: traceOffset, Workers: r.workers,
	}
	if u.planB, err = core.BuildPlan(corpus, cl, u.w.Profile, cfg); err != nil {
		return nil, err
	}
	// Plan A is the Stratified strategy's plan: the same stratification
	// (same configuration and seeds) at equal sizes.
	if u.assignA, err = partitioner.Partition(cfg.Scheme, u.planB.Strat.Members, partitioner.EqualSizes(corpus.Len(), lzNodes)); err != nil {
		return nil, err
	}
	var moves []partitioner.Move
	if u.assignB, moves, err = partitioner.Rebalance(u.assignA, u.planB.Sizes); err != nil {
		return nil, err
	}
	u.moves = len(moves)
	touched := map[int]bool{}
	for _, mv := range moves {
		touched[mv.From], touched[mv.To] = true, true
	}
	for j := range touched {
		u.changed = append(u.changed, j)
	}
	sort.Ints(u.changed)
	r.acct.check("rebalance.moves", float64(u.moves) > 0.05*float64(corpus.Len()),
		"Rebalance moved %d of %d records; the two plans must differ by more than 5 %%", u.moves, corpus.Len())
	if err := u.startFresh(); err != nil {
		return nil, err
	}
	return u, nil
}

func (u *lzUnit) aofPath(i int) string {
	return filepath.Join(u.r.tmp, fmt.Sprintf("gen-%d", u.gen), fmt.Sprintf("node-%d.aof", i))
}

// start starts the per-node servers of the current generation over
// whatever their AOF files hold (EnableAOF replays them), dials a
// client to each and points the store at them.
func (u *lzUnit) start() error {
	if err := os.MkdirAll(filepath.Dir(u.aofPath(0)), 0o755); err != nil {
		return err
	}
	// Servers restart in parallel, within the worker bound.
	srvs := make([]*kvstore.Server, lzNodes)
	addrs := make([]string, lzNodes)
	err := each(lzNodes, u.r.workers, func(i int) error {
		srvs[i] = kvstore.NewServer(nil)
		srvs[i].SetTelemetry(u.reg)
		_, err := u.r.leaf("kvstore.replay", func() error { return srvs[i].EnableAOF(u.aofPath(i), 0) })
		if err != nil {
			return err
		}
		addrs[i], err = srvs[i].Listen("127.0.0.1:0")
		return err
	})
	u.srv = &servers{srv: srvs, addrs: addrs}
	if err != nil {
		return err
	}
	kvs := make([]kvstore.KV, lzNodes)
	for i, addr := range addrs {
		c, err := kvstore.Dial(addr, dialTimeout)
		if err != nil {
			return err
		}
		u.clients = append(u.clients, c)
		kvs[i] = c
	}
	u.store.base, err = partitioner.NewKVStoreKV(kvs, pipelineWidth, "lz77")
	return err
}

// startFresh moves to a new generation: empty AOF files, new servers.
func (u *lzUnit) startFresh() error {
	if err := u.stop(); err != nil {
		return err
	}
	u.gen++
	return u.start()
}

// stop kills the servers (if any) and closes the clients.
func (u *lzUnit) stop() error {
	var errs []error
	for _, c := range u.clients {
		errs = append(errs, c.Close())
	}
	u.clients = nil
	if u.srv != nil {
		for _, s := range u.srv.srv {
			s.Kill()
		}
		u.srv = nil
	}
	return errors.Join(errs...)
}

// each runs fn(0..n-1) on at most workers goroutines.
func each(n, workers int, fn func(i int) error) error {
	_, err := parallel.ForErr(n, workers, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

func (u *lzUnit) rep(i int) (sample, error) {
	r, s := u.r, sample{"_records": float64(u.corpus.Len())}
	u.before = snap(u.reg)
	written := u.store.bytesWritten

	placeD, err := r.stage("place", func() error {
		if err := partitioner.PlaceParallel(u.corpus, u.assignA, u.store, r.workers); err != nil {
			return err
		}
		// Rebalance A→B: rewrite only the partitions it changed. Each
		// partition has its own server and connection.
		return each(len(u.changed), r.workers, func(k int) error {
			j := u.changed[k]
			return u.store.WritePartition(j, partitioner.RecordsOf(u.corpus, u.assignB, j))
		})
	})
	if err != nil {
		return nil, err
	}
	s["place_s"] = placeD.Seconds()
	s["_user_bytes"] = float64(u.store.bytesWritten - written)

	recoverD, err := r.stage("recover", func() error {
		if err := u.stop(); err != nil {
			return err
		}
		return u.start()
	})
	r.acct.op("recover", err)
	if err != nil {
		return nil, err
	}
	s["recover_s"] = recoverD.Seconds()

	fetchD, err := r.stage("fetch", func() error {
		return each(lzNodes, r.workers, func(j int) error {
			recs, err := u.store.ReadPartition(j)
			if err != nil {
				return err
			}
			err = verifyPartition(u.corpus, u.assignB, j, recs)
			r.acct.check("replayed.bytes", err == nil, "%v", err)
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	s["fetch_s"] = fetchD.Seconds()

	quality, err := r.execStage(s, func() (*cluster.Result, map[string]float64, error) {
		return u.w.Run(u.cl, u.assignB, traceOffset)
	})
	if err != nil {
		return nil, err
	}
	s["_ratio"] = quality["compression-ratio"]
	s["partitioner.moves"] = float64(u.moves)
	return s, nil
}

func (u *lzUnit) audit(i int, s sample) error {
	r := u.r
	err := u.assignB.Validate(u.corpus.Len())
	r.acct.check("assign.validate", err == nil, "%v", err)
	if u.firstRatio == 0 {
		u.firstRatio = s["_ratio"]
	}
	r.acct.check("lz77.ratio", s["_ratio"] > 1 && s["_ratio"] == u.firstRatio,
		"compression ratio %v (first repetition %v) must be > 1 and repeat exactly", s["_ratio"], u.firstRatio)
	s["opt.makespan_pred_err"] = math.Abs(u.planB.Optimized.Makespan-s["makespan_sim_s"]) / s["makespan_sim_s"]
	if r.traced && i >= 0 {
		ss := spanSet(r.tr.snapshot()).ofRep(i)
		s["partitioner.place_self_ms"] = ss.selfMsByName("place")
		s["kvstore.write_ms"] = ss.unionMs("kvstore.write")
		s["kvstore.read_ms"] = ss.unionMs("kvstore.read")
		s["kvstore.replay_ms"] = ss.unionMs("kvstore.replay")
		after := snap(u.reg)
		kvServerMetrics(s, u.before, after)
		s["kvstore.aof_fsyncs"] = counter(after, "kv_aof_fsyncs_total") - counter(u.before, "kv_aof_fsyncs_total")
		s["kvstore.aof_group_waits"] = counter(after, "kv_aof_group_commit_waits_total") - counter(u.before, "kv_aof_group_commit_waits_total")
		s["kvstore.aof_bytes"] = counter(after, "kv_aof_bytes_total") - counter(u.before, "kv_aof_bytes_total")
		s["kvstore.write_amp"] = s["kvstore.aof_bytes"] / s["_user_bytes"]
	}
	// The next repetition starts from empty logs, so that replay time
	// does not grow with the repetition number.
	old := filepath.Dir(u.aofPath(0))
	if err := u.startFresh(); err != nil {
		return err
	}
	return os.RemoveAll(old)
}

func (u *lzUnit) close() error { return u.stop() }
