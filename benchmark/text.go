package main

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"time"

	"pareto/internal/bench"
	"pareto/internal/cluster"
	"pareto/internal/core"
	"pareto/internal/datasets"
	"pareto/internal/distrib"
	"pareto/internal/kvstore"
	"pareto/internal/partitioner"
	"pareto/internal/pivots"
	"pareto/internal/strata"
	"pareto/internal/telemetry"
	"pareto/internal/workloads/apriori"
)

// Text mining program configuration: the paper's §IV deployment.
const (
	textNodes       = 4
	textStrata      = 16
	textSupport     = 0.08
	textMaxLen      = 3
	textMinFrac     = 0.25
	textPrimaries   = 3
	textDistWorkers = 2
)

var textWorkload = workload{
	name:  wText,
	why:   "The paper's §IV deployment: tree_mining_mem's planner reached through a 3-primary slot cluster, so sketches, barrier, placement and fetch cross RESP: a planner gain shows on both, a wire gain here.",
	warm:  true,
	reps:  func(sz sizes, seconds int) int { return scaled(sz.TextReps, seconds, minReps) },
	setup: setupText,
}

type textUnit struct {
	r      *run
	docs   []pivots.Doc
	vocab  int
	cl     *cluster.Cluster
	cfg    core.Config
	oracle *strata.Stratification
	first  planShape

	srv     *servers
	master  *kvstore.ClusterClient
	workers []*kvstore.ClusterClient
	store   *storeWrapper
	// srvReg, cliReg and distReg are the registries of the traced pass;
	// nil otherwise.
	srvReg, cliReg, distReg *telemetry.Registry

	refCandidates int
	barriers      int

	// Kept from rep for audit.
	plan    *core.Plan
	corpus  *pivots.TextCorpus
	fetched [][]pivots.Doc
	quality map[string]float64
	report  *distrib.Report
	distD   time.Duration
	before  [3]*telemetry.Snapshot
}

func setupText(r *run) (unit, error) {
	gen := datasets.RCV1Like(r.sz.TextScale)
	gen.Seed = r.seed
	docs, _, err := datasets.GenerateText(gen)
	if err != nil {
		return nil, err
	}
	cl, err := paperCluster(textNodes)
	if err != nil {
		return nil, err
	}
	u := &textUnit{r: r, docs: docs, vocab: gen.VocabSize, cl: cl}
	if r.traced {
		u.srvReg, u.cliReg, u.distReg = telemetry.NewRegistry(), telemetry.NewRegistry(), telemetry.NewRegistry()
		cl.Telemetry = telemetry.NewRegistry()
	}
	u.srv, err = startServers(textPrimaries, func(_ int, s *kvstore.Server) error {
		s.SetTelemetry(u.srvReg)
		return nil
	})
	if err != nil {
		return nil, err
	}
	ranges := kvstore.SplitSlots(u.srv.addrs)
	for i, s := range u.srv.srv {
		if err := s.SetClusterSlots(u.srv.addrs[i], ranges); err != nil {
			u.close()
			return nil, err
		}
	}
	dial := func() (*kvstore.ClusterClient, error) {
		return kvstore.DialCluster(u.srv.addrs, dialTimeout, kvstore.Options{Telemetry: u.cliReg})
	}
	if u.master, err = dial(); err != nil {
		u.close()
		return nil, err
	}
	kvs := make([]kvstore.KV, textDistWorkers)
	for i := range kvs {
		c, err := dial()
		if err != nil {
			u.close()
			return nil, err
		}
		u.workers = append(u.workers, c)
		kvs[i] = c
	}
	base, err := partitioner.NewKVStoreKV(kvs, pipelineWidth, "text")
	if err != nil {
		u.close()
		return nil, err
	}
	u.store = &storeWrapper{base: base, r: r, prefix: "kvstore"}

	w := bench.TextMining{SupportFrac: textSupport, MaxLen: textMaxLen}
	u.cfg = core.Config{
		Strategy: core.HetAware, Scheme: partitioner.Representative,
		Stratifier:       strata.StratifierConfig{Cluster: strata.Config{K: textStrata, L: 3, Seed: kmodesSeed}, Seed: stratSeed},
		MinPartitionFrac: textMinFrac, MinPartitionRecords: w.MinPartitionRecords(),
		SampleSeed: sampleSeed, TraceOffset: traceOffset, Workers: r.workers,
		DistStratify: u.distStratify,
	}
	if r.traced {
		u.cfg.Telemetry = telemetry.NewRegistry()
	}
	// The oracle: the in-process stratification the distributed one
	// must equal bit for bit.
	corpus, err := pivots.NewTextCorpusParallel(docs, u.vocab, r.workers)
	if err != nil {
		u.close()
		return nil, err
	}
	oracleCfg := u.cfg.Stratifier
	oracleCfg.Cluster.Workers = r.workers
	if u.oracle, err = strata.Stratify(corpus, oracleCfg); err != nil {
		u.close()
		return nil, err
	}
	return u, nil
}

// distStratify is core.Config.DistStratify: the §IV protocol over the
// master and the worker connections, timed from outside.
func (u *textUnit) distStratify(c pivots.Corpus, cfg strata.StratifierConfig) (*strata.Stratification, error) {
	var st *strata.Stratification
	var err error
	u.distD, err = u.r.stage("distrib.stratify", func() error {
		var err error
		st, u.report, err = distrib.StratifyDetailed(u.master, u.workers, c, distrib.Options{
			SketchWidth: cfg.SketchWidth, Cluster: cfg.Cluster, Seed: cfg.Seed,
			PipelineWidth: pipelineWidth, Telemetry: u.distReg,
		})
		return err
	})
	u.r.acct.op("distrib.Stratify", err)
	return st, err
}

func (u *textUnit) rep(i int) (sample, error) {
	r, s := u.r, sample{"_records": float64(len(u.docs))}
	u.before = [3]*telemetry.Snapshot{snap(u.srvReg), snap(u.cliReg), snap(u.distReg)}
	var w *bench.TextMining
	var err error
	u.plan, err = r.planStage(s, u.cl, u.cfg, func() (pivots.Corpus, core.ProfileFunc, error) {
		var err error
		u.corpus, err = pivots.NewTextCorpusParallel(u.docs, u.vocab, r.workers)
		w = &bench.TextMining{Docs: u.corpus, SupportFrac: textSupport, MaxLen: textMaxLen}
		return u.corpus, w.Profile, err
	})
	if err != nil {
		return nil, err
	}
	st := u.plan.Strat.Stats
	s["distrib.stratify_ms"] = ms(u.distD)
	s["distrib.wire_ms"] = ms(u.distD - st.SketchTime - st.ClusterTime)

	placeD, err := r.stage("place", func() error {
		return partitioner.PlaceParallel(u.corpus, u.plan.Assign, u.store, r.workers)
	})
	if err != nil {
		return nil, err
	}
	s["place_s"] = placeD.Seconds()

	fetchD, err := r.stage("fetch", func() error { return u.fetch() })
	if err != nil {
		return nil, err
	}
	s["fetch_s"] = fetchD.Seconds()

	u.quality, err = r.execStage(s, func() (*cluster.Result, map[string]float64, error) {
		return w.Run(u.cl, u.plan.Assign, traceOffset)
	})
	return s, err
}

// fetch is the per-node read side: each fetch worker reads its nodes'
// partitions back through its own connection, decodes and verifies
// them, then meets the others at a store barrier before the job runs.
func (u *textUnit) fetch() error {
	r := u.r
	p := u.plan.Assign.P()
	u.fetched = make([][]pivots.Doc, p)
	u.barriers++
	name := fmt.Sprintf("fetch-%d", u.barriers)
	errs := make([]error, len(u.workers))
	var wg sync.WaitGroup
	for g := range u.workers {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = func() error {
				bar, err := kvstore.NewBarrier(u.workers[g], name, len(u.workers))
				if err != nil {
					return err
				}
				// The default 50 ms poll ceiling would quantize fetch_s.
				bar.MaxPollInterval = 2 * time.Millisecond
				for j := g; j < p; j += len(u.workers) {
					recs, err := u.store.ReadPartition(j)
					if err != nil {
						bar.Arrive()
						return err
					}
					var docs []pivots.Doc
					_, err = r.leaf("pivots.decode", func() error {
						var err error
						docs, _, err = pivots.DecodeTextRecordsParallel(bytes.Join(recs, nil), 1)
						return err
					})
					if err != nil {
						bar.Arrive()
						return fmt.Errorf("decoding partition %d: %w", j, err)
					}
					u.fetched[j] = docs
					err = verifyPartition(u.corpus, u.plan.Assign, j, recs)
					r.acct.check("fetched.bytes", err == nil, "%v", err)
				}
				err = bar.Await()
				r.acct.op("barrier.Await", err)
				return err
			}()
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (u *textUnit) audit(i int, s sample) error {
	r := u.r
	r.checkSamePlan(&u.first, u.plan)
	r.acct.check("stratify.distributed", !u.plan.DegradedStratify, "fell back to in-process: %s", u.plan.DegradedReason)
	r.acct.check("stratify.oracle", sameStratification(u.oracle, u.plan.Strat), "distributed stratification differs from strata.Stratify")
	if i < 0 {
		parts := make([][]apriori.Transaction, len(u.fetched))
		for j, docs := range u.fetched {
			for _, d := range docs {
				parts[j] = append(parts[j], d.Terms)
			}
		}
		ref, err := apriori.MineDistributed(parts, textSupport, textMaxLen)
		if err != nil {
			return err
		}
		u.refCandidates = ref.Candidates
	}
	r.checkMining(u.quality, u.refCandidates)
	if u.report != nil {
		s["distrib.recovered_shards"] = float64(len(u.report.RecoveredShards))
	}
	if r.traced && i >= 0 {
		ss := spanSet(r.tr.snapshot()).ofRep(i)
		s["partitioner.place_self_ms"] = ss.selfMsByName("place")
		s["kvstore.write_ms"] = ss.unionMs("kvstore.write")
		s["kvstore.read_ms"] = ss.unionMs("kvstore.read")
		s["pivots.decode_ms"] = ss.unionMs("pivots.decode")
		kvServerMetrics(s, u.before[0], snap(u.srvReg))
		cli, dist := snap(u.cliReg), snap(u.distReg)
		s["kvstore.client_ops"] = counter(cli, "kv_client_ops_total") - counter(u.before[1], "kv_client_ops_total")
		s["kvstore.client_retries"] = counter(cli, "kv_client_retries_total") - counter(u.before[1], "kv_client_retries_total")
		s["kvstore.moved_redirects"] = counter(cli, "kv_cluster_client_moved_total") - counter(u.before[1], "kv_cluster_client_moved_total")
		s["distrib.ship_bytes"] = counter(dist, "distrib_ship_bytes_total") - counter(u.before[2], "distrib_ship_bytes_total")
		wait := dist.Histograms["distrib_barrier_wait_ns"].Sum - u.before[2].Histograms["distrib_barrier_wait_ns"].Sum
		s["distrib.barrier_wait_ms"] = float64(wait) / 1e6
	}
	return auditModel(s, u.plan, minSizeFor(u.cfg, len(u.docs), textNodes))
}

// sameStratification compares what distrib.Stratify returns — the
// assignment, the strata's members and weights, the sketches — with the
// in-process result. (The distributed result carries no centers.)
func sameStratification(a, b *strata.Stratification) bool {
	return reflect.DeepEqual(a.Assign, b.Assign) && reflect.DeepEqual(a.Members, b.Members) &&
		reflect.DeepEqual(a.Sketches, b.Sketches) && reflect.DeepEqual(a.WeightTotals, b.WeightTotals)
}

func (u *textUnit) close() error {
	var errs []error
	for _, c := range append([]*kvstore.ClusterClient{u.master}, u.workers...) {
		if c != nil {
			errs = append(errs, c.Close())
		}
	}
	if u.srv != nil {
		errs = append(errs, u.srv.close())
	}
	return errors.Join(errs...)
}
