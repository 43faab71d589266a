// Package core orchestrates the complete Pareto partitioning pipeline
// of the paper (Figure 1): data stratifier (III) → task-specific
// heterogeneity estimator (I) with representative progressive samples →
// green-energy estimator (II) → Pareto-optimal modeler (IV) → data
// partitioner (V).
//
// The three strategies evaluated in §V map onto one pipeline:
//
//   - Stratified (baseline): stratification-driven placement with
//     equal-sized partitions — payload-aware but hardware-oblivious.
//   - Het-Aware: α = 1, partition sizes from the time-only LP.
//   - Het-Energy-Aware: α slightly below 1, trading makespan for a
//     lower dirty-energy footprint.
package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"pareto/internal/cluster"
	"pareto/internal/opt"
	"pareto/internal/parallel"
	"pareto/internal/partitioner"
	"pareto/internal/pivots"
	"pareto/internal/sampling"
	"pareto/internal/strata"
	"pareto/internal/telemetry"
)

// Strategy identifies one of the paper's three partitioning strategies.
type Strategy int

// The evaluated strategies.
const (
	// Stratified is the baseline: stratified placement, equal sizes.
	Stratified Strategy = iota
	// HetAware optimizes execution time only (α = 1).
	HetAware
	// HetEnergyAware trades time for dirty energy (α < 1).
	HetEnergyAware
)

// String names the strategy as in the paper's figures.
func (s Strategy) String() string {
	switch s {
	case Stratified:
		return "Stratified"
	case HetAware:
		return "Het-Aware"
	case HetEnergyAware:
		return "Het-Energy-Aware"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Config assembles the pipeline's knobs.
type Config struct {
	// Strategy selects the partition-sizing policy.
	Strategy Strategy
	// Alpha is the scalarization weight for HetEnergyAware (ignored
	// otherwise; HetAware pins α = 1). The paper uses 0.999 for
	// mining and 0.995 for compression.
	Alpha float64
	// Scheme is the placement scheme (Representative for mining,
	// SimilarTogether for compression).
	Scheme partitioner.Scheme
	// Stratifier configures sketching and compositeKModes.
	Stratifier strata.StratifierConfig
	// MinPartitionFrac, if positive, floors every optimized partition
	// at this fraction of the equal share N/p. Scaled-support mining
	// degenerates on starved partitions (local threshold of a couple
	// of records), so mining deployments typically set ~0.25. The
	// baseline strategy ignores it (its partitions are equal anyway).
	MinPartitionFrac float64
	// MinPartitionRecords, if positive, floors every optimized
	// partition at an absolute record count (the workload's own
	// statement of how many records a partition needs before its
	// scaled local threshold is meaningful — e.g. several records
	// above support·size ≥ a handful for frequent pattern mining).
	// The effective floor is the larger of the two, capped at N/p.
	MinPartitionRecords float64
	// SampleSeed drives representative-sample selection.
	SampleSeed int64
	// TraceOffset is the job's planned start within the energy traces
	// (seconds); the dirty-rate constants k_i average the traces over
	// DirtyRateWindow from there.
	TraceOffset float64
	// DistStratify, when set, is tried first for component III — e.g.
	// a closure over distrib.StratifyDetailed running across real
	// workers. If it fails (dead store, partitioned network,
	// unrecoverable worker loss), BuildPlan degrades gracefully to the
	// in-process stratifier and records the degradation on the Plan and
	// in its Summary, so an operator can see the run did not exercise
	// the distributed path.
	DistStratify func(c pivots.Corpus, cfg strata.StratifierConfig) (*strata.Stratification, error)
	// Telemetry, when non-nil, records a "plan" span with one child per
	// pipeline stage (scan, stratify, profile, optimize, place) plus
	// corpus gauges into the registry. Stage timings are collected on
	// the Plan regardless (they are one clock pair per stage).
	Telemetry *telemetry.Registry
	// Workers bounds the goroutines the planner's parallel stages use
	// (corpus scan, stratification, sample drawing). ≤ 0 means
	// GOMAXPROCS. Plans are bit-identical at every value: parallel
	// stages are chunked and index-addressed, never order-sensitive.
	// The caller's ProfileFunc is always called from one goroutine at a
	// time: BuildPlan cannot know whether it is thread-safe.
	Workers int
}

// StageTiming is one pipeline stage's wall-clock duration, collected
// by BuildPlan and surfaced through the PlanSummary. ParallelMs, when
// nonzero, is the summed worker busy time inside the stage's parallel
// sections; ParallelMs ÷ Ms approximates the stage's achieved speedup.
type StageTiming struct {
	Name       string  `json:"name"`
	Ms         float64 `json:"ms"`
	ParallelMs float64 `json:"parallel_ms,omitempty"`
}

// DirtyRateWindow is the averaging window, in seconds, of the
// dirty-rate constants k_i (§III-B): one hour of trace from the job's
// planned start.
const DirtyRateWindow = 3600

// ProfileFunc runs the actual analytics algorithm on a representative
// sample (record indices into the corpus) and returns its abstract
// cost. The cluster's per-node speeds convert cost into per-node
// simulated time during profiling.
type ProfileFunc func(indices []int) (cost float64, err error)

// Plan is the pipeline's output: everything needed to place data and
// predict the run.
type Plan struct {
	// Strategy and Alpha echo the configuration.
	Strategy Strategy
	Alpha    float64
	// Strat is the stratification (component III's output).
	Strat *strata.Stratification
	// Models are the per-node learned time models and dirty rates
	// (components I and II) — nil for the Stratified baseline, which
	// does not profile.
	Models []opt.NodeModel
	// Sizes are the partition sizes in records.
	Sizes []int
	// Optimized is the modeler's raw output (nil for the baseline).
	Optimized *opt.Plan
	// Assign is the final placement.
	Assign *partitioner.Assignment
	// Scheme echoes the placement scheme used.
	Scheme partitioner.Scheme
	// DegradedStratify is true when Config.DistStratify failed and the
	// pipeline fell back to the in-process stratifier; DegradedReason
	// carries the failure.
	DegradedStratify bool
	DegradedReason   string
	// Stages holds the wall-clock timing of every pipeline stage that
	// ran, in execution order.
	Stages []StageTiming
	// CorpusWeight is the summed record weight found by the scan stage.
	CorpusWeight int
}

// Resolve is the single place the planning rule's defaults live: it
// returns cfg with every value BuildPlan's stages read filled in for a
// corpus of n records on p nodes, and rejects a configuration no stage
// could run — before any stage has. Several strata per partition
// (K = min(4p, n)), L = 3, the stratifier's workers from Workers, α = 1
// unless the strategy is Het-Energy-Aware (the sample ladder is
// sampling.ScheduleWithFloor's, a function of n alone). It is
// idempotent, so a caller that must not let K follow a growing corpus
// (internal/replan) resolves once on its base corpus and hands the
// result to every later BuildPlan.
func Resolve(cfg Config, n, p int, profile ProfileFunc) (Config, error) {
	switch cfg.Strategy {
	case Stratified, HetAware:
		cfg.Alpha = 1
	case HetEnergyAware:
		if cfg.Alpha <= 0 || cfg.Alpha >= 1 {
			return cfg, fmt.Errorf("core: Het-Energy-Aware needs alpha in (0,1), got %v", cfg.Alpha)
		}
	default:
		return cfg, fmt.Errorf("core: unknown strategy %v", cfg.Strategy)
	}
	if cfg.Strategy != Stratified && profile == nil {
		return cfg, fmt.Errorf("core: strategy %v requires a profile function", cfg.Strategy)
	}
	if cfg.Stratifier.Cluster.K == 0 {
		cfg.Stratifier.Cluster.K = min(4*p, n)
	}
	if cfg.Stratifier.Cluster.L == 0 {
		cfg.Stratifier.Cluster.L = 3
	}
	// One knob bounds the whole planner: unless the stratifier was given
	// its own worker count, it inherits Config.Workers (both treat 0 as
	// GOMAXPROCS, and stratification is worker-count independent anyway).
	if cfg.Stratifier.Cluster.Workers == 0 {
		cfg.Stratifier.Cluster.Workers = cfg.Workers
	}
	return cfg, nil
}

// BuildPlan runs the full pipeline for the corpus on the cluster.
// profile may be nil for the Stratified baseline (which skips
// components I/II); it is required for the heterogeneity-aware
// strategies.
func BuildPlan(corpus pivots.Corpus, cl *cluster.Cluster, profile ProfileFunc, cfg Config) (*Plan, error) {
	if corpus == nil || corpus.Len() == 0 {
		return nil, errors.New("core: empty corpus")
	}
	if cl == nil || cl.P() == 0 {
		return nil, errors.New("core: empty cluster")
	}
	n := corpus.Len()
	p := cl.P()
	cfg, err := Resolve(cfg, n, p, profile)
	if err != nil {
		return nil, err
	}
	het := cfg.Strategy != Stratified

	// The dirty rates depend on the traces alone, so their integration
	// starts now and overlaps the scan and stratify stages; the profile
	// stage joins it. The channel is buffered so the sender never leaks
	// when an earlier stage fails.
	var ratesCh chan []float64
	if het {
		ratesCh = make(chan []float64, 1)
		go func() { ratesCh <- cl.DirtyRates(cfg.TraceOffset, DirtyRateWindow) }()
	}

	plan := &Plan{Strategy: cfg.Strategy, Alpha: cfg.Alpha, Scheme: cfg.Scheme}
	root := cfg.Telemetry.StartSpan("plan")
	defer root.End()
	if reg := cfg.Telemetry; reg != nil {
		reg.Gauge("plan_workers").Set(int64(parallel.Workers(n, cfg.Workers)))
	}
	// stage wraps one pipeline stage: a child span (nil-safe when
	// telemetry is off) plus a wall-clock timing recorded on the plan.
	// Stages report the summed busy time of their parallel sections (0
	// for sequential stages), surfaced as StageTiming.ParallelMs and the
	// plan_stage_parallel_ms gauge so an operator can compare busy time
	// against span wall time for achieved speedup.
	stage := func(name string, fn func() (time.Duration, error)) error {
		sp := root.Child(name)
		t0 := time.Now()
		busy, err := fn()
		st := StageTiming{Name: name, Ms: float64(time.Since(t0).Nanoseconds()) / 1e6}
		if busy > 0 {
			st.ParallelMs = float64(busy.Nanoseconds()) / 1e6
			if reg := cfg.Telemetry; reg != nil {
				reg.FloatGauge(`plan_stage_parallel_ms{stage="` + name + `"}`).Add(st.ParallelMs)
			}
		}
		plan.Stages = append(plan.Stages, st)
		sp.End()
		return err
	}

	// Scan: one pass over the corpus for its total weight — the
	// denominator for stratified weighting and the first thing an
	// operator checks when a snapshot looks wrong. Chunked in parallel;
	// the integer sum is commutative, so the result is exact at any
	// worker count.
	_ = stage("scan", func() (time.Duration, error) {
		var w atomic.Int64
		busy := parallel.For(n, cfg.Workers, func(lo, hi int) {
			sum := 0
			for i := lo; i < hi; i++ {
				sum += corpus.Weight(i)
			}
			w.Add(int64(sum))
		})
		plan.CorpusWeight = int(w.Load())
		if reg := cfg.Telemetry; reg != nil {
			reg.Gauge("corpus_records").Set(int64(n))
			reg.Gauge("corpus_weight").Set(w.Load())
		}
		return busy, nil
	})

	// Component III: stratify — distributed first when configured,
	// degrading to in-process if the distributed path fails terminally.
	// A failed distributed attempt's cost is folded into the fallback's
	// stats (FailedAttempts/FailedAttemptTime) instead of being dropped,
	// so the planning-overhead audit stays honest on the degraded path.
	var st *strata.Stratification
	if err := stage("stratify", func() (time.Duration, error) {
		var err error
		var failedDur time.Duration
		degradedReason := ""
		if cfg.DistStratify != nil {
			t0 := time.Now()
			st, err = cfg.DistStratify(corpus, cfg.Stratifier)
			if err != nil {
				failedDur = time.Since(t0)
				degradedReason = err.Error()
				st = nil
			}
		}
		if st == nil {
			st, err = strata.Stratify(corpus, cfg.Stratifier)
			if err != nil {
				return 0, fmt.Errorf("core: stratifying: %w", err)
			}
			if degradedReason != "" {
				plan.DegradedStratify = true
				plan.DegradedReason = degradedReason
				st.Stats.AddFailedAttempt(failedDur)
			}
		}
		plan.Strat = st
		return st.Stats.Busy, nil
	}); err != nil {
		return nil, err
	}

	if !het {
		plan.Sizes = partitioner.EqualSizes(n, p)
	} else {
		if err := stage("profile", func() (time.Duration, error) {
			models, busy, err := ProfileModels(cl, st.Members, n, <-ratesCh, profile, cfg)
			plan.Models = models
			return busy, err
		}); err != nil {
			return nil, err
		}
		if err := stage("optimize", func() (time.Duration, error) {
			oplan, err := opt.OptimizeWithConstraints(plan.Models, n, cfg.Alpha, SizingConstraints(cfg, n, p))
			if err != nil {
				return 0, fmt.Errorf("core: optimizing: %w", err)
			}
			plan.Optimized = oplan
			plan.Sizes = oplan.Sizes
			return 0, nil
		}); err != nil {
			return nil, err
		}
	}

	// Component V: place.
	if err := stage("place", func() (time.Duration, error) {
		assign, err := partitioner.Partition(cfg.Scheme, st.Members, plan.Sizes)
		if err != nil {
			return 0, fmt.Errorf("core: partitioning: %w", err)
		}
		plan.Assign = assign
		return 0, nil
	}); err != nil {
		return nil, err
	}
	return plan, nil
}

// ProfileModels is the profile stage — components I and II: one
// representative sample per rung of the ladder for n records, drawn
// from the strata in members and run through the real workload, then a
// least-squares time fit per node paired with that node's dirty rate.
// cfg must come from Resolve. It also returns the summed busy time of
// its parallel sections for the stage's ParallelMs audit.
//
// rates are the cluster's DirtyRates over cfg's trace window; they are
// an input because they do not depend on the corpus, so BuildPlan
// integrates the traces while it stratifies and a replanning loop
// integrates them once.
//
// Sample drawing fans out across sizes (each size's RNG is seeded
// independently as SampleSeed+size, so draws are index-addressed and
// bit-identical at any worker count); profile evaluation is serial,
// because the caller's ProfileFunc need not be thread-safe.
func ProfileModels(cl *cluster.Cluster, members [][]int, n int, rates []float64, profile ProfileFunc, cfg Config) ([]opt.NodeModel, time.Duration, error) {
	sizes, err := sampling.ScheduleWithFloor(n)
	if err != nil {
		return nil, 0, fmt.Errorf("core: profiling schedule: %w", err)
	}
	// Draw one representative sample per scheduled size; every node
	// profiles on the same sample, so differences are pure hardware.
	idxs := make([][]int, len(sizes))
	busy, err := parallel.ForErr(len(sizes), cfg.Workers, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			s := sizes[i]
			idx, err := strata.StratifiedSample(members, s, cfg.SampleSeed+int64(s))
			if err != nil {
				return fmt.Errorf("core: sampling %d records: %w", s, err)
			}
			idxs[i] = idx
		}
		return nil
	})
	if err != nil {
		return nil, busy, err
	}
	costs := make([]float64, len(sizes))
	profBusy, err := parallel.ForErr(len(sizes), 1, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			cost, err := profile(idxs[i])
			if err != nil {
				return fmt.Errorf("core: profiling sample of %d: %w", sizes[i], err)
			}
			costs[i] = cost
		}
		return nil
	})
	busy += profBusy
	if err != nil {
		return nil, busy, err
	}
	models, err := cl.ProfileAllWithRates(sizes, costs, rates)
	if err != nil {
		return nil, busy, fmt.Errorf("core: fitting node models: %w", err)
	}
	return models, busy, nil
}

// SizingConstraints derives the optimize stage's partition floor at n
// records on p nodes: the larger of MinPartitionFrac of the equal share
// and MinPartitionRecords, capped at the equal share n/p. Whether a
// floor exists does not depend on n, so a sizing LP built from it keeps
// its row layout as a corpus grows (the property opt.SizingUpdates
// requires).
func SizingConstraints(cfg Config, n, p int) opt.Constraints {
	cons := opt.Constraints{}
	if cfg.MinPartitionFrac > 0 {
		cons.MinSize = cfg.MinPartitionFrac * float64(n) / float64(p)
	}
	if cfg.MinPartitionRecords > cons.MinSize {
		cons.MinSize = cfg.MinPartitionRecords
	}
	if share := float64(n) / float64(p); cons.MinSize > share {
		cons.MinSize = share
	}
	return cons
}

// RunPartition is the executable form of one node's share: the record
// indices it owns.
type RunPartition func(node int, indices []int) (cost float64, err error)

// Execute runs the planned job on the cluster: node j processes
// partition j via run, concurrently, and the result carries simulated
// times and energies.
func Execute(cl *cluster.Cluster, plan *Plan, run RunPartition, traceOffset float64) (*cluster.Result, error) {
	if plan == nil || plan.Assign == nil {
		return nil, errors.New("core: nil plan")
	}
	return cl.Run(traceOffset, plan.Assign.Parts, func(node int, indices []int) (cluster.TaskReport, error) {
		cost, err := run(node, indices)
		return cluster.TaskReport{Cost: cost}, err
	})
}
