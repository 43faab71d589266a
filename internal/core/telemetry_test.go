package core

import (
	"errors"
	"testing"
	"time"

	"pareto/internal/partitioner"
	"pareto/internal/pivots"
	"pareto/internal/strata"
	"pareto/internal/telemetry"
)

// TestPipelineSpans: a full BuildPlan + cl.Run with telemetry attached
// must produce one span per pipeline stage — scan, stratify, profile,
// optimize, place under the "plan" root, and a "run" root from the
// cluster — each with a recorded (non-negative, and for the real work
// non-zero) duration, plus per-stage timings on the plan itself.
func TestPipelineSpans(t *testing.T) {
	corpus, cl := testSetup(t)
	reg := telemetry.NewRegistry()
	cl.Telemetry = reg
	plan, err := BuildPlan(corpus, cl, linearProfile(corpus), Config{
		Strategy:  HetAware,
		Scheme:    partitioner.Representative,
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(0, plan.Assign.Parts, runWeighted(corpus)); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	wantStages := []string{"scan", "stratify", "profile", "optimize", "place"}
	planSpan := snap.FindSpan("plan")
	if planSpan == nil {
		t.Fatal("no plan span recorded")
	}
	if len(planSpan.Children) != len(wantStages) {
		t.Fatalf("plan span children: %+v", planSpan.Children)
	}
	for i, name := range wantStages {
		c := planSpan.Children[i]
		if c.Name != name {
			t.Errorf("stage %d = %q, want %q", i, c.Name, name)
		}
		if c.DurationMs < 0 {
			t.Errorf("stage %q duration %v < 0", name, c.DurationMs)
		}
	}
	// The heavyweight stages cannot legitimately take zero time.
	for _, name := range []string{"stratify", "profile"} {
		if sp := planSpan.Find(name); sp == nil || sp.DurationMs <= 0 {
			t.Errorf("stage %q duration not positive: %+v", name, sp)
		}
	}
	run := snap.FindSpan("run")
	if run == nil {
		t.Fatal("no run span recorded")
	}
	if run.DurationMs <= 0 || len(run.Children) == 0 {
		t.Errorf("run span: %+v", run)
	}
	if snap.Gauges["corpus_records"] != int64ToFloat(corpus.Len()) {
		t.Errorf("corpus_records = %v, want %d", snap.Gauges["corpus_records"], corpus.Len())
	}

	// The same timings ride on the plan and survive into the summary.
	if len(plan.Stages) != len(wantStages) {
		t.Fatalf("plan stages: %+v", plan.Stages)
	}
	if plan.CorpusWeight <= 0 {
		t.Errorf("corpus weight = %d, want > 0", plan.CorpusWeight)
	}
	// Stratify is most of a plan's wall time: its workers' busy time
	// must reach the stage, or busy ÷ wall is computed without it.
	if st := plan.Stages[1]; st.Name != "stratify" || st.ParallelMs <= 0 {
		t.Errorf("stratify stage reports no parallel busy time: %+v", st)
	}
	sum, err := plan.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Stages) != len(wantStages) || sum.CorpusWeight != plan.CorpusWeight {
		t.Errorf("summary stages/weight: %+v %d", sum.Stages, sum.CorpusWeight)
	}
}

func int64ToFloat(n int) float64 { return float64(int64(n)) }

// TestBuildPlanWithoutTelemetry: stage timings populate even with no
// registry attached (nil fast path end to end).
func TestBuildPlanWithoutTelemetry(t *testing.T) {
	corpus, cl := testSetup(t)
	plan, err := BuildPlan(corpus, cl, nil, Config{
		Strategy: Stratified,
		Scheme:   partitioner.Representative,
		Stratifier: strata.StratifierConfig{
			Cluster: strata.Config{K: 8, L: 3, Seed: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantStages := []string{"scan", "stratify", "place"}
	if len(plan.Stages) != len(wantStages) {
		t.Fatalf("stages: %+v", plan.Stages)
	}
	for i, name := range wantStages {
		if plan.Stages[i].Name != name {
			t.Errorf("stage %d = %q, want %q", i, plan.Stages[i].Name, name)
		}
	}
}

// TestDegradedStratifyStatsMerged: when the distributed attempt fails,
// its wall-clock cost must be folded into the fallback stratification's
// stats — and surfaced by the summary — not dropped.
func TestDegradedStratifyStatsMerged(t *testing.T) {
	corpus, cl := testSetup(t)
	const attemptCost = 20 * time.Millisecond
	plan, err := BuildPlan(corpus, cl, nil, Config{
		Strategy: Stratified,
		Scheme:   partitioner.Representative,
		DistStratify: func(pivots.Corpus, strata.StratifierConfig) (*strata.Stratification, error) {
			time.Sleep(attemptCost)
			return nil, errors.New("store unreachable")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.DegradedStratify || plan.DegradedReason == "" {
		t.Fatalf("degradation not recorded: %+v", plan)
	}
	st := plan.Strat.Stats
	if st.FailedAttemptTime < attemptCost {
		t.Errorf("failed attempt time = %v, want ≥ %v", st.FailedAttemptTime, attemptCost)
	}
	// The fallback's own profile must still be present (sketch time
	// non-zero, consistent audit fields).
	if st.SketchTime <= 0 || st.Iterations == 0 {
		t.Errorf("fallback stats incomplete: %+v", st)
	}
	sum, err := plan.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if !sum.DegradedStratify || sum.StratifyFailedMs < 19 {
		t.Errorf("summary degraded fields: %v %v", sum.DegradedStratify, sum.StratifyFailedMs)
	}
	if sum.StratifySketchMs <= 0 || sum.StratifyIterations == 0 {
		t.Errorf("summary audit fields empty on degraded path: %+v", sum)
	}
}
