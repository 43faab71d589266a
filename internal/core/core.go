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
	// unrecoverable worker loss), Prepare degrades gracefully to the
	// in-process stratifier and records the degradation on the Plan and
	// in its Summary, so an operator can see the run did not exercise
	// the distributed path.
	DistStratify func(c pivots.Corpus, cfg strata.StratifierConfig) (*strata.Stratification, error)
	// Telemetry, when non-nil, records a span per planning call with one
	// child per stage it ran (BuildPlan's "plan": scan, stratify, profile,
	// optimize, place) plus corpus gauges into the registry. Stage
	// timings are collected on the Plan regardless.
	Telemetry *telemetry.Registry
	// Workers bounds the goroutines the planner's parallel stages use
	// (corpus scan, stratification, sample drawing). ≤ 0 means
	// GOMAXPROCS. Plans are bit-identical at every value: parallel
	// stages are chunked and index-addressed, never order-sensitive.
	// The caller's ProfileFunc is always called from one goroutine at a
	// time: the planner cannot know whether it is thread-safe.
	Workers int
}

// StageTiming is one pipeline stage's wall-clock duration, collected
// by the planner and surfaced through the PlanSummary. ParallelMs, when
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
// cost. A plan's node fit converts cost into per-node simulated time at
// each node's speed, so profiling needs no cluster.
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
	return resolveStratifier(cfg, n, p), nil
}

// resolveStratifier fills in Resolve's stratifier defaults.
func resolveStratifier(cfg Config, n, p int) Config {
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
	return cfg
}

// BuildPlan runs the full pipeline for the corpus on the cluster:
// Prepare, then Plan under cfg's strategy and α. profile may be nil for
// the Stratified baseline (which skips components I/II).
func BuildPlan(corpus pivots.Corpus, cl *cluster.Cluster, profile ProfileFunc, cfg Config) (*Plan, error) {
	if corpus == nil || corpus.Len() == 0 {
		return nil, errors.New("core: empty corpus")
	}
	if cl == nil || cl.P() == 0 {
		return nil, errors.New("core: empty cluster")
	}
	cfg, err := Resolve(cfg, corpus.Len(), cl.P(), profile)
	if err != nil {
		return nil, err
	}
	if cfg.Strategy == Stratified {
		profile = nil // the baseline does not profile
	}
	sg := &stager{reg: cfg.Telemetry, root: cfg.Telemetry.StartSpan("plan")} // both halves
	defer sg.root.End()
	pr, err := prepare(corpus, cl.P(), profile, cfg, sg)
	if err != nil {
		return nil, err
	}
	return pr.plan(cl, cfg.Strategy, cfg.Alpha, sg)
}

// Prepared is the cluster-free half of planning one corpus for p nodes:
// scan, strata (III) and the ladder's abstract costs (I), none of which
// depends on node speeds, traces or α. Its plans share its strata.
type Prepared struct {
	cfg     Config
	n, p    int
	profile ProfileFunc // nil: no ladder, so only the baseline plans
	base    Plan        // what every plan starts from
	ladder  []int
	costs   []float64 // the ladder's measured costs
}

// Prepare runs, under a "prepare" span, the stages that do not depend on
// the cluster: scan, stratify and, given a profile, the sample ladder.
// All of cfg is fixed here except Strategy and Alpha, which Plan takes.
func Prepare(corpus pivots.Corpus, p int, profile ProfileFunc, cfg Config) (*Prepared, error) {
	if corpus == nil || corpus.Len() == 0 || p <= 0 {
		return nil, errors.New("core: empty corpus or no nodes")
	}
	sg := &stager{reg: cfg.Telemetry, root: cfg.Telemetry.StartSpan("prepare")}
	defer sg.root.End()
	return prepare(corpus, p, profile, cfg, sg)
}

func prepare(corpus pivots.Corpus, p int, profile ProfileFunc, cfg Config, sg *stager) (*Prepared, error) {
	n := corpus.Len()
	cfg = resolveStratifier(cfg, n, p)
	pr := &Prepared{cfg: cfg, n: n, p: p, profile: profile, base: Plan{Scheme: cfg.Scheme}}
	if reg := cfg.Telemetry; reg != nil {
		reg.Gauge("plan_workers").Set(int64(parallel.Workers(n, cfg.Workers)))
	}

	// Scan: one pass over the corpus for its total weight — the
	// denominator for stratified weighting and the first thing an
	// operator checks when a snapshot looks wrong. Chunked in parallel;
	// the integer sum is commutative, so the result is exact at any
	// worker count.
	_ = sg.run("scan", func() (time.Duration, error) {
		var w atomic.Int64
		busy := parallel.For(n, cfg.Workers, func(lo, hi int) {
			sum := 0
			for i := lo; i < hi; i++ {
				sum += corpus.Weight(i)
			}
			w.Add(int64(sum))
		})
		pr.base.CorpusWeight = int(w.Load())
		if reg := cfg.Telemetry; reg != nil {
			reg.Gauge("corpus_records").Set(int64(n))
			reg.Gauge("corpus_weight").Set(w.Load())
		}
		return busy, nil
	})

	// Component III: stratify — distributed first when configured,
	// degrading to in-process if the distributed path fails terminally.
	// A failed distributed attempt's cost is folded into the fallback's
	// stats (FailedAttemptTime) instead of being dropped, so the
	// planning-overhead audit stays honest on the degraded path.
	if err := sg.run("stratify", func() (time.Duration, error) {
		var st *strata.Stratification
		var err error
		var failedDur time.Duration
		if cfg.DistStratify != nil {
			t0 := time.Now()
			st, err = cfg.DistStratify(corpus, cfg.Stratifier)
			if err != nil {
				failedDur = time.Since(t0)
				pr.base.DegradedStratify, pr.base.DegradedReason = true, err.Error()
				st = nil
			}
		}
		if st == nil {
			st, err = strata.Stratify(corpus, cfg.Stratifier)
			if err != nil {
				return 0, fmt.Errorf("core: stratifying: %w", err)
			}
			st.Stats.FailedAttemptTime = failedDur
		}
		pr.base.Strat = st
		return st.Stats.Busy, nil
	}); err != nil {
		return nil, err
	}

	if profile != nil {
		if err := sg.run("profile", func() (busy time.Duration, err error) {
			pr.ladder, pr.costs, busy, err = ProfileLadder(pr.base.Strat.Members, n, profile, cfg)
			return busy, err
		}); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// Plan sizes and places the prepared corpus on cl (p nodes) under
// strategy s at weight alpha: Size (the baseline takes equal sizes),
// then placement (V). Its Stages and "plan" span are the stages it ran.
func (pr *Prepared) Plan(cl *cluster.Cluster, s Strategy, alpha float64) (*Plan, error) {
	sg := &stager{reg: pr.cfg.Telemetry, root: pr.cfg.Telemetry.StartSpan("plan")}
	defer sg.root.End()
	return pr.plan(cl, s, alpha, sg)
}

func (pr *Prepared) plan(cl *cluster.Cluster, s Strategy, alpha float64, sg *stager) (*Plan, error) {
	if cl == nil || cl.P() != pr.p {
		return nil, fmt.Errorf("core: cluster is not the %d nodes prepared for", pr.p)
	}
	// The (strategy, α) rule is Resolve's; the rest of cfg is prepared.
	c, err := Resolve(Config{Strategy: s, Alpha: alpha}, pr.n, pr.p, pr.profile)
	if err != nil {
		return nil, err
	}
	plan := pr.base
	plan.Strategy, plan.Alpha = s, c.Alpha
	if s == Stratified {
		plan.Sizes = partitioner.EqualSizes(pr.n, pr.p)
	} else {
		if err := sg.run("optimize", func() (_ time.Duration, err error) {
			plan.Models, plan.Optimized, err = Size(cl, pr.ladder, pr.costs, pr.n, c.Alpha, pr.cfg)
			return 0, err
		}); err != nil {
			return nil, err
		}
		plan.Sizes = plan.Optimized.Sizes
	}

	// Component V: place.
	if err := sg.run("place", func() (_ time.Duration, err error) {
		plan.Assign, err = partitioner.Partition(pr.cfg.Scheme, plan.Strat.Members, plan.Sizes)
		return 0, err
	}); err != nil {
		return nil, fmt.Errorf("core: partitioning: %w", err)
	}
	plan.Stages = sg.stages
	return &plan, nil
}

// stager times one planning call's stages: a StageTiming and a child
// span of root each.
type stager struct {
	reg    *telemetry.Registry
	root   *telemetry.Span
	stages []StageTiming
}

// run times fn as the stage name. fn returns the summed busy time of
// its parallel sections (0 for sequential stages), surfaced as
// StageTiming.ParallelMs and the plan_stage_parallel_ms gauge so an
// operator can compare busy time against span wall time for achieved
// speedup.
func (sg *stager) run(name string, fn func() (time.Duration, error)) error {
	sp := sg.root.Child(name)
	t0 := time.Now()
	busy, err := fn()
	st := StageTiming{Name: name, Ms: float64(time.Since(t0).Nanoseconds()) / 1e6}
	if busy > 0 {
		st.ParallelMs = float64(busy.Nanoseconds()) / 1e6
		if sg.reg != nil {
			sg.reg.FloatGauge(`plan_stage_parallel_ms{stage="` + name + `"}`).Add(st.ParallelMs)
		}
	}
	sg.stages = append(sg.stages, st)
	sp.End()
	return err
}

// ProfileLadder is the profile stage: one representative sample per
// rung of the ladder for n records, drawn from the strata in members and
// run through profile; it returns the rungs, their abstract costs and
// the busy time. Draws fan out (seeded SampleSeed+size: bit-identical at
// any worker count); profile runs serially, as it need not be thread-safe.
func ProfileLadder(members [][]int, n int, profile ProfileFunc, cfg Config) ([]int, []float64, time.Duration, error) {
	sizes, err := sampling.ScheduleWithFloor(n)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("core: profiling schedule: %w", err)
	}
	// Every node profiles on the same samples: differences are hardware.
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
		return nil, nil, busy, err
	}
	costs := make([]float64, len(sizes))
	t0 := time.Now() // serial evaluation counts as one worker's busy time
	for i, idx := range idxs {
		if costs[i], err = profile(idx); err != nil {
			return nil, nil, busy + time.Since(t0), fmt.Errorf("core: profiling sample of %d: %w", sizes[i], err)
		}
	}
	return sizes, costs, busy + time.Since(t0), nil
}

// Size is a plan's optimize stage, its half between the ladder and
// placement: each node's time model fitted to the ladder's costs at the
// node's speed and paired with its dirty rate over cfg's trace window
// (I, II), then the sizing LP for n records at weight alpha (IV).
func Size(cl *cluster.Cluster, ladder []int, costs []float64, n int, alpha float64, cfg Config) ([]opt.NodeModel, *opt.Plan, error) {
	models, err := cl.ProfileAllWithRates(ladder, costs, cl.DirtyRates(cfg.TraceOffset, DirtyRateWindow))
	if err != nil {
		return nil, nil, fmt.Errorf("core: fitting node models: %w", err)
	}
	oplan, err := opt.Optimize(models, n, alpha, SizingConstraints(cfg, n, len(models)))
	if err != nil {
		return nil, nil, fmt.Errorf("core: optimizing: %w", err)
	}
	return models, oplan, nil
}

// SizingConstraints derives the optimize stage's partition floor at n
// records on p nodes: the larger of MinPartitionFrac of the equal share
// and MinPartitionRecords, capped at the equal share n/p.
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
