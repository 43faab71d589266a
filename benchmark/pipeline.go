package main

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sync"
	"time"

	"pareto/internal/cluster"
	"pareto/internal/core"
	"pareto/internal/energy"
	"pareto/internal/opt"
	"pareto/internal/partitioner"
	"pareto/internal/pivots"
)

// Fixed program configuration shared by the pipeline workloads. The
// benchmark seed never reaches these: stratifier, sampling and LP seeds
// belong to the program under test.
const (
	traceOffset   = 12 * 3600 // job start: noon of day one, so green energy is in play
	stratSeed     = 5
	kmodesSeed    = 7
	sampleSeed    = 3
	pipelineWidth = 64
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// paperCluster is the paper's four machine types and four sites cycled
// across p nodes, with two days of solar trace.
func paperCluster(p int) (*cluster.Cluster, error) {
	return cluster.PaperCluster(p, energy.DefaultPanel(), 172, 48)
}

// profileWrapper decorates a core.ProfileFunc: it counts calls, sums
// their time, and records a span per call when tracing.
type profileWrapper struct {
	r     *run
	fn    core.ProfileFunc
	mu    sync.Mutex
	calls int
	total time.Duration
}

func (p *profileWrapper) profile(indices []int) (float64, error) {
	sp := p.r.tr.start(p.r.cur, "workload.profile", p.r.rep)
	t0 := time.Now()
	cost, err := p.fn(indices)
	d := time.Since(t0)
	sp.end()
	p.mu.Lock()
	p.calls++
	p.total += d
	p.mu.Unlock()
	return cost, err
}

// planShape is the part of a plan that must be identical between
// repetitions: everything but the wall-clock timings.
type planShape struct {
	Alpha  float64
	Sizes  []int
	Parts  [][]int
	Strata []int
	Models []opt.NodeModel
}

func shapeOf(p *core.Plan) planShape {
	return planShape{Alpha: p.Alpha, Sizes: p.Sizes, Parts: p.Assign.Parts, Strata: p.Strat.Assign, Models: p.Models}
}

// checkPlan runs the structural plan checks of one repetition.
func (r *run) checkPlan(plan *core.Plan, n int) {
	err := plan.Assign.Validate(n)
	r.acct.check("assign.validate", err == nil, "%v", err)
	sum := 0
	for _, s := range plan.Sizes {
		sum += s
	}
	r.acct.check("sizes.sum", sum == n, "sizes sum to %d, corpus has %d records", sum, n)
}

// checkSamePlan compares a repetition's plan with the first one's.
func (r *run) checkSamePlan(first *planShape, plan *core.Plan) {
	got := shapeOf(plan)
	if first.Sizes == nil {
		*first = got
		return
	}
	r.acct.check("plan.deterministic", reflect.DeepEqual(*first, got), "plan differs from the first repetition's")
}

// planMetrics turns the public outputs of one BuildPlan call into
// per-layer metrics, and, when tracing, into child spans of the span
// that covered the call (which began at t0).
func (r *run) planMetrics(s sample, plan *core.Plan, t0 time.Time, prof *profileWrapper) {
	st := plan.Strat.Stats
	s["sketch.ms"] = ms(st.SketchTime)
	s["strata.kmodes_ms"] = ms(st.ClusterTime)
	s["strata.kmodes_iters"] = float64(st.Iterations)
	s["strata.kmodes_moves"] = float64(st.MovedTotal)
	var parMs, parStageMs float64
	at := t0
	for _, stage := range plan.Stages {
		name := stage.Name
		if name == "place" {
			// core's last stage computes the assignment; the benchmark
			// keeps "place" for shipping partitions to the store.
			name = "assign"
		}
		s["core.stage_"+name+"_ms"] = stage.Ms
		d := time.Duration(stage.Ms * 1e6)
		sp := r.tr.add(r.cur, "core.stage_"+name, r.rep, at, d)
		if stage.Name == "stratify" {
			r.tr.add(sp, "sketch", r.rep, at, st.SketchTime)
			r.tr.add(sp, "strata.kmodes", r.rep, at.Add(st.SketchTime), st.ClusterTime)
		}
		at = at.Add(d)
		if stage.ParallelMs > 0 {
			parMs += stage.ParallelMs
			parStageMs += stage.Ms
		}
	}
	if parStageMs > 0 {
		s["parallel.busy_frac"] = parMs / (float64(r.workers) * parStageMs)
	}
	s["opt.optimize_ms"] = s["core.stage_optimize_ms"]
	if prof != nil {
		s["workload.profile_ms"] = ms(prof.total)
		s["workload.profile_calls"] = float64(prof.calls)
		s["core.profile_self_ms"] = s["core.stage_profile_ms"] - ms(prof.total)
	}
}

// planStage is records → plan, the plan_s of a repetition. build makes
// the corpus from the records and returns it with the workload's
// profile function.
func (r *run) planStage(s sample, cl *cluster.Cluster, cfg core.Config, build func() (pivots.Corpus, core.ProfileFunc, error)) (*core.Plan, error) {
	var corpus pivots.Corpus
	var plan *core.Plan
	planD, err := r.stage("plan", func() error {
		var prof *profileWrapper
		d, err := r.stage("pivots.build", func() error {
			c, fn, err := build()
			corpus, prof = c, &profileWrapper{r: r, fn: fn}
			return err
		})
		if err != nil {
			return err
		}
		s["pivots.build_ms"] = ms(d)
		_, err = r.stage("core.buildplan", func() error {
			t0 := time.Now()
			var err error
			if plan, err = core.BuildPlan(corpus, cl, prof.profile, cfg); err == nil {
				r.planMetrics(s, plan, t0, prof)
			}
			return err
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	s["plan_s"] = planD.Seconds()
	r.checkPlan(plan, corpus.Len())
	return plan, nil
}

// execStage runs the job on the cluster executor and records its wall
// time, the paper's two objectives for the executed plan, and how the
// wall-clock planning cost (when the repetition planned) compares with
// the job. It returns the workload's quality numbers.
func (r *run) execStage(s sample, job func() (*cluster.Result, map[string]float64, error)) (map[string]float64, error) {
	var res *cluster.Result
	var quality map[string]float64
	d, err := r.stage("exec", func() error {
		var err error
		res, quality, err = job()
		return err
	})
	if err != nil {
		return nil, err
	}
	s["exec_s"] = d.Seconds()
	s["cluster.exec_ms"] = ms(d)
	s["makespan_sim_s"] = res.Makespan
	s["dirty_energy_j"] = res.DirtyEnergy
	s["cluster.imbalance"] = res.Imbalance()
	if planS, ok := s["plan_s"]; ok {
		s["plan_overhead_ratio"] = planS / res.Makespan
	}
	return quality, nil
}

// checkMining holds a mining run's quality numbers against the
// in-memory reference over the placed data.
func (r *run) checkMining(quality map[string]float64, refCandidates int) {
	r.acct.check("mining.candidates", int(quality["candidates"]) == refCandidates,
		"cluster run found %v candidates, in-memory reference %d", quality["candidates"], refCandidates)
	r.acct.check("mining.frequent", quality["frequent"] > 0, "no frequent pattern")
}

// auditModel adds the exact counts that need a second look at the plan:
// the pivots of a cold solve of the sizing LP over the plan's models,
// and how far the modeler's makespan prediction was from the simulated
// one.
func auditModel(s sample, plan *core.Plan, cons opt.Constraints) error {
	if plan.Optimized == nil {
		return nil
	}
	n := 0
	for _, sz := range plan.Sizes {
		n += sz
	}
	prob, err := opt.SizingLP(plan.Models, n, plan.Alpha, cons)
	if err != nil {
		return err
	}
	sol, err := prob.NewSolver().Solve()
	if err != nil {
		return err
	}
	s["lp.pivots_cold"] = float64(sol.Iterations)
	if mk := s["makespan_sim_s"]; mk > 0 {
		s["opt.makespan_pred_err"] = math.Abs(plan.Optimized.Makespan-mk) / mk
	}
	return nil
}

// minSizeFor mirrors how core turns its two partition floors into the
// LP's MinSize constraint.
func minSizeFor(cfg core.Config, n, p int) opt.Constraints {
	cons := opt.Constraints{}
	if cfg.MinPartitionFrac > 0 {
		cons.MinSize = cfg.MinPartitionFrac * float64(n) / float64(p)
	}
	if cfg.MinPartitionRecords > cons.MinSize {
		cons.MinSize = cfg.MinPartitionRecords
	}
	return cons
}

// verifyPartition checks fetched records against the bytes the corpus
// serializes for partition j.
func verifyPartition(c pivots.Corpus, a *partitioner.Assignment, j int, got [][]byte) error {
	want := partitioner.RecordsOf(c, a, j)
	if len(got) != len(want) {
		return fmt.Errorf("partition %d: fetched %d records, placed %d", j, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Errorf("partition %d: record %d differs from the placed bytes", j, i)
		}
	}
	return nil
}
