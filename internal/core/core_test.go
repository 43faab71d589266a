package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"pareto/internal/cluster"
	"pareto/internal/datasets"
	"pareto/internal/energy"
	"pareto/internal/partitioner"
	"pareto/internal/pivots"
	"pareto/internal/sampling"
	"pareto/internal/strata"
)

// testSetup builds a small text corpus with planted topics and a
// 4-node paper cluster.
func testSetup(t *testing.T) (*pivots.TextCorpus, *cluster.Cluster) {
	t.Helper()
	cfg := datasets.RCV1Like(0.001) // ~800 docs
	docs, _, err := datasets.GenerateText(cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := pivots.NewTextCorpus(docs, cfg.VocabSize)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.PaperCluster(4, energy.DefaultPanel(), 172, 48)
	if err != nil {
		t.Fatal(err)
	}
	return corpus, cl
}

// linearProfile is a workload whose cost is proportional to the
// record-weight sum — the regime where the LP is provably optimal.
func linearProfile(corpus pivots.Corpus) ProfileFunc {
	return func(indices []int) (float64, error) {
		var cost float64
		for _, i := range indices {
			cost += 2000 * float64(corpus.Weight(i))
		}
		return cost, nil
	}
}

// runWeighted is the executed job matching linearProfile, in the form
// cluster.Run takes.
func runWeighted(corpus pivots.Corpus) func(node int, indices []int) (cluster.TaskReport, error) {
	profile := linearProfile(corpus)
	return func(node int, indices []int) (cluster.TaskReport, error) {
		cost, err := profile(indices)
		return cluster.TaskReport{Cost: cost}, err
	}
}

func TestBuildPlanValidation(t *testing.T) {
	corpus, cl := testSetup(t)
	if _, err := BuildPlan(nil, cl, nil, Config{}); err == nil {
		t.Error("nil corpus accepted")
	}
	if _, err := BuildPlan(corpus, nil, nil, Config{}); err == nil {
		t.Error("nil cluster accepted")
	}
	// Argument errors are rejected before any stage runs: a stratifier
	// that is ever called fails the test.
	noStage := func(pivots.Corpus, strata.StratifierConfig) (*strata.Stratification, error) {
		t.Error("a pipeline stage ran before the configuration was validated")
		return nil, errors.New("unreachable")
	}
	if _, err := BuildPlan(corpus, cl, nil, Config{Strategy: HetAware, DistStratify: noStage}); err == nil {
		t.Error("HetAware without profile accepted")
	}
	if _, err := BuildPlan(corpus, cl, nil, Config{Strategy: HetEnergyAware, Alpha: 0.5, DistStratify: noStage}); err == nil {
		t.Error("HetEnergyAware without profile accepted")
	}
	for _, alpha := range []float64{0, 1, -0.5, 1.5} {
		cfg := Config{Strategy: HetEnergyAware, Alpha: alpha, DistStratify: noStage}
		if _, err := BuildPlan(corpus, cl, linearProfile(corpus), cfg); err == nil {
			t.Errorf("HetEnergyAware with alpha %v accepted", alpha)
		}
	}
	if _, err := BuildPlan(corpus, cl, nil, Config{Strategy: Strategy(99), DistStratify: noStage}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

// TestBuildPlanSurfacesProfileError: a profile function failing on one
// rung of the sample ladder fails the plan, and the error names that
// rung's sample size.
func TestBuildPlanSurfacesProfileError(t *testing.T) {
	corpus, cl := testSetup(t)
	sizes, err := sampling.ScheduleWithFloor(corpus.Len())
	if err != nil {
		t.Fatal(err)
	}
	failAt := sizes[len(sizes)/2]
	boom := errors.New("sample run failed")
	ok := linearProfile(corpus)
	profile := func(indices []int) (float64, error) {
		if len(indices) == failAt {
			return 0, boom
		}
		return ok(indices)
	}
	_, err = BuildPlan(corpus, cl, profile, Config{Strategy: HetAware, Scheme: partitioner.Representative})
	if !errors.Is(err, boom) {
		t.Fatalf("BuildPlan error %v, want the profile's", err)
	}
	if want := fmt.Sprintf("sample of %d", failAt); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the sample size (%q)", err, want)
	}
}

func TestStratifiedBaselinePlan(t *testing.T) {
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
	if plan.Models != nil || plan.Optimized != nil {
		t.Error("baseline must not profile or optimize")
	}
	sizes := plan.Assign.Sizes()
	for j := 1; j < len(sizes); j++ {
		if sizes[j] > sizes[0] || sizes[0]-sizes[j] > 1 {
			t.Errorf("baseline sizes not equal: %v", sizes)
		}
	}
	if err := plan.Assign.Validate(corpus.Len()); err != nil {
		t.Fatal(err)
	}
}

func TestHetAwarePlanLoadsBySpeed(t *testing.T) {
	corpus, cl := testSetup(t)
	plan, err := BuildPlan(corpus, cl, linearProfile(corpus), Config{
		Strategy: HetAware,
		Scheme:   partitioner.Representative,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Assign.Validate(corpus.Len()); err != nil {
		t.Fatal(err)
	}
	sizes := plan.Assign.Sizes()
	// Node 0 (4x) must get more than node 3 (1x); roughly 4x.
	ratio := float64(sizes[0]) / float64(sizes[3])
	if ratio < 2.5 || ratio > 6 {
		t.Errorf("4x/1x size ratio %.2f (sizes %v)", ratio, sizes)
	}
	if len(plan.Models) != 4 {
		t.Fatalf("%d models", len(plan.Models))
	}
	// Learned slopes must order inversely with speed.
	if !(plan.Models[3].Time.Slope > plan.Models[0].Time.Slope) {
		t.Error("slow node did not learn a steeper time slope")
	}
}

func TestHetAwareBeatsBaselineMakespan(t *testing.T) {
	corpus, cl := testSetup(t)
	base, err := BuildPlan(corpus, cl, nil, Config{Strategy: Stratified, Scheme: partitioner.Representative})
	if err != nil {
		t.Fatal(err)
	}
	het, err := BuildPlan(corpus, cl, linearProfile(corpus), Config{Strategy: HetAware, Scheme: partitioner.Representative})
	if err != nil {
		t.Fatal(err)
	}
	run := runWeighted(corpus)
	baseRes, err := cl.Run(12*3600, base.Assign.Parts, run)
	if err != nil {
		t.Fatal(err)
	}
	hetRes, err := cl.Run(12*3600, het.Assign.Parts, run)
	if err != nil {
		t.Fatal(err)
	}
	if hetRes.Makespan >= baseRes.Makespan {
		t.Errorf("Het-Aware makespan %.3f not below baseline %.3f",
			hetRes.Makespan, baseRes.Makespan)
	}
	// On a 4/3/2/1 cluster with linear work, equal sizes bottleneck on
	// the 1x node: improvement should approach 1 − (4/10)/1 = 60%,
	// certainly above 30%.
	improvement := 1 - hetRes.Makespan/baseRes.Makespan
	if improvement < 0.3 {
		t.Errorf("improvement %.1f%%, expected ≥ 30%%", 100*improvement)
	}
}

func TestHetEnergyAwareTradesTimeForEnergy(t *testing.T) {
	corpus, cl := testSetup(t)
	profile := linearProfile(corpus)
	run := runWeighted(corpus)
	const offset = 12 * 3600 // noon: green energy differentiates nodes
	het, err := BuildPlan(corpus, cl, profile, Config{
		Strategy: HetAware, Scheme: partitioner.Representative, TraceOffset: offset,
	})
	if err != nil {
		t.Fatal(err)
	}
	hea, err := BuildPlan(corpus, cl, profile, Config{
		Strategy: HetEnergyAware, Alpha: 0.9,
		Scheme: partitioner.Representative, TraceOffset: offset,
	})
	if err != nil {
		t.Fatal(err)
	}
	hetRes, err := cl.Run(offset, het.Assign.Parts, run)
	if err != nil {
		t.Fatal(err)
	}
	heaRes, err := cl.Run(offset, hea.Assign.Parts, run)
	if err != nil {
		t.Fatal(err)
	}
	if heaRes.DirtyEnergy > hetRes.DirtyEnergy {
		t.Errorf("Het-Energy-Aware dirty %.0f J above Het-Aware %.0f J",
			heaRes.DirtyEnergy, hetRes.DirtyEnergy)
	}
	if heaRes.Makespan < hetRes.Makespan {
		t.Errorf("Het-Energy-Aware makespan %.3f below Het-Aware %.3f — impossible",
			heaRes.Makespan, hetRes.Makespan)
	}
}

// TestExecuteValidation: a plan run on a cluster of another size is
// refused, and a task's error reaches the caller.
func TestExecuteValidation(t *testing.T) {
	corpus, cl := testSetup(t)
	plan, err := BuildPlan(corpus, cl, nil, Config{Strategy: Stratified, Scheme: partitioner.Representative})
	if err != nil {
		t.Fatal(err)
	}
	small, err := cluster.PaperCluster(2, energy.DefaultPanel(), 172, 24)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := small.Run(0, plan.Assign.Parts, runWeighted(corpus)); err == nil {
		t.Error("partition/node mismatch accepted")
	}
	boom := errors.New("boom")
	fail := func(int, []int) (cluster.TaskReport, error) { return cluster.TaskReport{}, boom }
	if _, err := cl.Run(0, plan.Assign.Parts, fail); !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

func TestStrategyString(t *testing.T) {
	if Stratified.String() != "Stratified" || HetAware.String() != "Het-Aware" ||
		HetEnergyAware.String() != "Het-Energy-Aware" {
		t.Error("strategy names wrong")
	}
	if Strategy(9).String() == "" {
		t.Error("unknown strategy must print")
	}
}

func TestStratifiedSampleHelper(t *testing.T) {
	members := [][]int{{0, 1, 2, 3, 4, 5}, {6, 7, 8}, {9}}
	s, err := strata.StratifiedSample(members, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 5 {
		t.Fatalf("sample size %d", len(s))
	}
	seen := map[int]bool{}
	for _, i := range s {
		if seen[i] {
			t.Error("duplicate in sample")
		}
		seen[i] = true
	}
	if _, err := strata.StratifiedSample(members, 11, 1); err == nil {
		t.Error("oversized sample accepted")
	}
	if s, err := strata.StratifiedSample(members, 0, 1); err != nil || len(s) != 0 {
		t.Error("zero sample must be empty")
	}
	if s, err := strata.StratifiedSample(members, 10, 1); err != nil || len(s) != 10 {
		t.Error("full sample must cover everything")
	}
}

func TestPlanSummaryRoundtrip(t *testing.T) {
	corpus, cl := testSetup(t)
	plan, err := BuildPlan(corpus, cl, linearProfile(corpus), Config{
		Strategy: HetAware, Scheme: partitioner.Representative,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := plan.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Strategy != "Het-Aware" || sum.Records != corpus.Len() || len(sum.Nodes) != 4 {
		t.Errorf("summary %+v", sum)
	}
	if sum.PredictedMakespanSec <= 0 {
		t.Error("missing prediction")
	}
	var buf bytes.Buffer
	if err := sum.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back PlanSummary
	if err := json.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if back.Strategy != sum.Strategy || back.Sizes[0] != sum.Sizes[0] ||
		back.Nodes[2].Slope != sum.Nodes[2].Slope {
		t.Errorf("roundtrip mismatch: %+v vs %+v", back, sum)
	}
	// Baseline plans summarize without models.
	base, err := BuildPlan(corpus, cl, nil, Config{Strategy: Stratified, Scheme: partitioner.Representative})
	if err != nil {
		t.Fatal(err)
	}
	bsum, err := base.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if len(bsum.Nodes) != 0 || bsum.PredictedMakespanSec != 0 {
		t.Errorf("baseline summary %+v", bsum)
	}
	// Nil plan rejected.
	var nilPlan *Plan
	if _, err := nilPlan.Summary(); err == nil {
		t.Error("nil plan summarized")
	}
}

// TestDistStratifyDegradation: a failing distributed stratifier must
// not kill the plan — the pipeline falls back to the in-process
// stratifier and records the degradation for the operator.
func TestDistStratifyDegradation(t *testing.T) {
	corpus, cl := testSetup(t)
	cfg := Config{
		Strategy: Stratified,
		Scheme:   partitioner.Representative,
		Stratifier: strata.StratifierConfig{
			Cluster: strata.Config{K: 8, L: 3, Seed: 1},
		},
		DistStratify: func(pivots.Corpus, strata.StratifierConfig) (*strata.Stratification, error) {
			return nil, errors.New("store unreachable: all workers dead")
		},
	}
	plan, err := BuildPlan(corpus, cl, nil, cfg)
	if err != nil {
		t.Fatalf("BuildPlan with failing DistStratify: %v", err)
	}
	if !plan.DegradedStratify {
		t.Error("degradation not recorded on plan")
	}
	if plan.DegradedReason == "" {
		t.Error("degradation reason missing")
	}
	sum, err := plan.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if !sum.DegradedStratify || sum.DegradedReason == "" {
		t.Errorf("summary does not carry degradation: %+v", sum)
	}
	// The fallback result is the plain in-process stratification.
	want, err := strata.Stratify(corpus, cfg.Stratifier)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Strat.K() != want.K() {
		t.Errorf("fallback stratification differs: K=%d want %d", plan.Strat.K(), want.K())
	}

	// A succeeding DistStratify is used as-is, with no degradation.
	calls := 0
	cfg.DistStratify = func(c pivots.Corpus, sc strata.StratifierConfig) (*strata.Stratification, error) {
		calls++
		return strata.Stratify(c, sc)
	}
	plan, err = BuildPlan(corpus, cl, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("DistStratify called %d times, want 1", calls)
	}
	if plan.DegradedStratify || plan.DegradedReason != "" {
		t.Error("healthy distributed path marked degraded")
	}
	// Its busy time reaches the stage like the in-process one's.
	if st := plan.Stages[1]; st.Name != "stratify" || st.ParallelMs <= 0 || plan.Strat.Stats.Busy <= 0 {
		t.Errorf("distributed stratify stage %+v, stats busy %v", st, plan.Strat.Stats.Busy)
	}
}

// TestSizingConstraintsFloor: the partition floor is the larger of
// MinPartitionFrac of the equal share and MinPartitionRecords, capped
// at the equal share, and a plan built with it keeps every partition at
// or above it — the slow node included, which the unfloored Het-Aware
// plan loads well below it.
func TestSizingConstraintsFloor(t *testing.T) {
	for _, c := range []struct{ frac, recs, want float64 }{
		{0, 0, 0},
		{0.25, 0, 25}, // n = 400 on p = 4: the equal share is 100
		{0.25, 40, 40},
		{0.5, 10, 50},
		{0, 500, 100},
	} {
		cfg := Config{MinPartitionFrac: c.frac, MinPartitionRecords: c.recs}
		if got := SizingConstraints(cfg, 400, 4).MinSize; got != c.want {
			t.Errorf("frac %v, records %v: floor %v, want %v", c.frac, c.recs, got, c.want)
		}
	}
	corpus, cl := testSetup(t)
	cfg := Config{Strategy: HetAware, MinPartitionFrac: 0.75}
	plan, err := BuildPlan(corpus, cl, linearProfile(corpus), cfg)
	if err != nil {
		t.Fatal(err)
	}
	floor := SizingConstraints(cfg, corpus.Len(), cl.P()).MinSize
	for j, s := range plan.Assign.Sizes() {
		if float64(s) < floor-1 {
			t.Errorf("partition %d holds %d records, below the floor %v", j, s, floor)
		}
	}
	free, err := BuildPlan(corpus, cl, linearProfile(corpus), Config{Strategy: HetAware})
	if err != nil {
		t.Fatal(err)
	}
	if slow := free.Assign.Sizes()[3]; float64(slow) >= floor-1 {
		t.Fatalf("the unfloored plan already gives the slow node %d ≥ %v records; the floor is not exercised", slow, floor)
	}
}
