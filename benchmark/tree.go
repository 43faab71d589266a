package main

import (
	"bytes"
	"fmt"

	"pareto/internal/bench"
	"pareto/internal/cluster"
	"pareto/internal/core"
	"pareto/internal/datasets"
	"pareto/internal/partitioner"
	"pareto/internal/pivots"
	"pareto/internal/strata"
	"pareto/internal/workloads/treemine"
)

const wTree = "tree_mining_mem"

// Tree mining program configuration. Support 0.10, not the repo's
// PaperScale 0.3: at ≥30k SwissProt-like trees 0.3 mines zero frequent
// patterns, which would time a degenerate job.
const (
	treeNodes    = 8
	treeAlpha    = 0.995
	treeSupport  = 0.10
	treeMaxNodes = 4
	treeMinFrac  = 0.25
	treeStrata   = 32
)

var treeWorkload = workload{
	name:  wTree,
	why:   "Planner-bound cold path in memory: pivots, sketch, k-modes, cold LP and exec do all the work; kvstore, distrib and replan do none, so a store or wire change must not move it.",
	warm:  true,
	reps:  func(sz sizes, seconds int) int { return scaled(sz.TreeReps, seconds, minReps) },
	setup: setupTree,
}

type treeUnit struct {
	r     *run
	trees []pivots.Tree
	cl    *cluster.Cluster
	cfg   core.Config
	store *storeWrapper
	first planShape
	// refCandidates is the candidate count of the in-memory
	// MineDistributed reference over the placed data.
	refCandidates int

	// Kept from rep for audit.
	plan    *core.Plan
	corpus  *pivots.TreeCorpus
	quality map[string]float64
}

func setupTree(r *run) (unit, error) {
	gen := datasets.SwissProtLike(r.sz.TreeScale)
	gen.Seed = r.seed
	trees, _, err := datasets.GenerateTrees(gen)
	if err != nil {
		return nil, err
	}
	cl, err := paperCluster(treeNodes)
	if err != nil {
		return nil, err
	}
	w := bench.TreeMining{SupportFrac: treeSupport, MaxNodes: treeMaxNodes}
	return &treeUnit{
		r: r, trees: trees, cl: cl,
		cfg: core.Config{
			Strategy: core.HetEnergyAware, Alpha: treeAlpha, Scheme: partitioner.Representative,
			Stratifier:       strata.StratifierConfig{Cluster: strata.Config{K: treeStrata, L: 3, Seed: kmodesSeed}, Seed: stratSeed},
			MinPartitionFrac: treeMinFrac, MinPartitionRecords: w.MinPartitionRecords(),
			SampleSeed: sampleSeed, TraceOffset: traceOffset, Workers: r.workers,
		},
		store: &storeWrapper{base: partitioner.NewMemoryStore(), r: r, prefix: "memstore"},
	}, nil
}

func (u *treeUnit) rep(i int) (sample, error) {
	r, s := u.r, sample{"_records": float64(len(u.trees))}
	var w *bench.TreeMining
	var err error
	u.plan, err = r.planStage(s, u.cl, u.cfg, func() (pivots.Corpus, core.ProfileFunc, error) {
		var err error
		u.corpus, err = pivots.NewTreeCorpusParallel(u.trees, r.workers)
		w = &bench.TreeMining{Trees: u.corpus, SupportFrac: treeSupport, MaxNodes: treeMaxNodes}
		return u.corpus, w.Profile, err
	})
	if err != nil {
		return nil, err
	}
	placeD, err := r.stage("place", func() error {
		return partitioner.PlaceParallel(u.corpus, u.plan.Assign, u.store, r.workers)
	})
	if err != nil {
		return nil, err
	}
	s["place_s"] = placeD.Seconds()
	u.quality, err = r.execStage(s, func() (*cluster.Result, map[string]float64, error) {
		return w.Run(u.cl, u.plan.Assign, traceOffset)
	})
	return s, err
}

func (u *treeUnit) audit(i int, s sample) error {
	r := u.r
	r.checkSamePlan(&u.first, u.plan)
	if i < 0 {
		// Warm-up: mine the placed data in memory as the reference.
		parts := make([][]pivots.Tree, u.plan.Assign.P())
		for j := range parts {
			recs, err := u.store.ReadPartition(j)
			if err != nil {
				return err
			}
			err = verifyPartition(u.corpus, u.plan.Assign, j, recs)
			r.acct.check("placed.bytes", err == nil, "%v", err)
			if parts[j], err = pivots.DecodeTreeRecordsParallel(bytes.Join(recs, nil), r.workers); err != nil {
				return fmt.Errorf("decoding placed partition %d: %w", j, err)
			}
		}
		ref, err := treemine.MineDistributed(parts, treeSupport, treemine.Config{MaxNodes: treeMaxNodes})
		if err != nil {
			return err
		}
		u.refCandidates = ref.Candidates
	}
	r.checkMining(u.quality, u.refCandidates)
	if r.traced && i >= 0 {
		ss := spanSet(r.tr.snapshot()).ofRep(i)
		s["partitioner.place_self_ms"] = ss.selfMsByName("place")
	}
	return auditModel(s, u.plan, minSizeFor(u.cfg, len(u.trees), treeNodes))
}

func (u *treeUnit) close() error { return nil }
