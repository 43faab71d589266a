package core

import (
	"reflect"
	"testing"

	"pareto/internal/cluster"
	"pareto/internal/energy"
	"pareto/internal/partitioner"
	"pareto/internal/telemetry"
)

// TestPreparedPlanIsBuildPlan: every (strategy, α) planned from one
// Prepared equals BuildPlan of that cell — models, optimized plan,
// sizes, placement, strata — and its stages are the ones BuildPlan
// runs after the prepared scan, stratify and profile.
func TestPreparedPlanIsBuildPlan(t *testing.T) {
	corpus, cl := testSetup(t)
	profile := linearProfile(corpus)
	base := Config{Scheme: partitioner.Representative, SampleSeed: 3, TraceOffset: 12 * 3600, MinPartitionFrac: 0.25}
	pr, err := Prepare(corpus, cl.P(), profile, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		s     Strategy
		alpha float64
	}{{Stratified, 0}, {HetAware, 0.3}, {HetEnergyAware, 0.999}, {HetEnergyAware, 0.5}} {
		got, err := pr.Plan(cl, c.s, c.alpha)
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Strategy, cfg.Alpha = c.s, c.alpha
		want, err := BuildPlan(corpus, cl, profile, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Strategy != want.Strategy || got.Alpha != want.Alpha || got.CorpusWeight != want.CorpusWeight {
			t.Errorf("%v α=%v: strategy/α/weight %v %v %d, want %v %v %d", c.s, c.alpha,
				got.Strategy, got.Alpha, got.CorpusWeight, want.Strategy, want.Alpha, want.CorpusWeight)
		}
		if !reflect.DeepEqual(got.Models, want.Models) || !reflect.DeepEqual(got.Optimized, want.Optimized) {
			t.Errorf("%v α=%v: models or optimized plan differ from BuildPlan's", c.s, c.alpha)
		}
		if !reflect.DeepEqual(got.Sizes, want.Sizes) || !reflect.DeepEqual(got.Assign, want.Assign) {
			t.Errorf("%v α=%v: sizes %v / placement differ from BuildPlan's %v", c.s, c.alpha, got.Sizes, want.Sizes)
		}
		if !reflect.DeepEqual(got.Strat.Members, want.Strat.Members) {
			t.Errorf("%v α=%v: strata differ from BuildPlan's", c.s, c.alpha)
		}
		prepared := "scan stratify profile "
		if c.s == Stratified {
			prepared = "scan stratify "
		}
		if prepared+names(got.Stages) != names(want.Stages) {
			t.Errorf("%v α=%v: stages %s, BuildPlan's %s", c.s, c.alpha, names(got.Stages), names(want.Stages))
		}
	}
}

func names(stages []StageTiming) string {
	s := ""
	for _, st := range stages {
		s += st.Name + " "
	}
	return s
}

// TestPreparedPlanValidation: Prepare refuses what no stage could run,
// and Plan refuses a strategy, α or cluster the preparation cannot serve.
func TestPreparedPlanValidation(t *testing.T) {
	corpus, cl := testSetup(t)
	if _, err := Prepare(nil, 4, nil, Config{}); err == nil {
		t.Error("nil corpus accepted")
	}
	if _, err := Prepare(corpus, 0, nil, Config{}); err == nil {
		t.Error("zero nodes accepted")
	}
	bare, err := Prepare(corpus, cl.P(), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bare.Plan(cl, HetAware, 1); err == nil {
		t.Error("Het-Aware planned without a sample ladder")
	}
	if _, err := bare.Plan(cl, Stratified, 0); err != nil {
		t.Errorf("baseline from a ladder-free preparation: %v", err)
	}
	pr, err := Prepare(corpus, cl.P(), linearProfile(corpus), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []float64{0, 1, -0.5} {
		if _, err := pr.Plan(cl, HetEnergyAware, alpha); err == nil {
			t.Errorf("Het-Energy-Aware with alpha %v accepted", alpha)
		}
	}
	if _, err := pr.Plan(cl, Strategy(99), 1); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := pr.Plan(nil, HetAware, 1); err == nil {
		t.Error("nil cluster accepted")
	}
	other, err := cluster.PaperCluster(2, energy.DefaultPanel(), 172, 48)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Plan(other, HetAware, 1); err == nil {
		t.Error("plan on a cluster of another size accepted")
	}
}

// TestPreparedSpansAndStages: Prepare records a "prepare" span over
// scan, stratify and profile; each Plan a "plan" span over the stages
// it runs, which are its Stages.
func TestPreparedSpansAndStages(t *testing.T) {
	corpus, cl := testSetup(t)
	reg := telemetry.NewRegistry()
	pr, err := Prepare(corpus, cl.P(), linearProfile(corpus), Config{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	het, err := pr.Plan(cl, HetAware, 1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := pr.Plan(cl, Stratified, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(het.Stages); got != "optimize place " {
		t.Errorf("Het-Aware stages %q", got)
	}
	if got := names(base.Stages); got != "place " {
		t.Errorf("baseline stages %q", got)
	}
	snap := reg.Snapshot()
	want := []string{"prepare: scan stratify profile ", "plan: optimize place ", "plan: place "}
	if len(snap.Spans) != len(want) {
		t.Fatalf("%d root spans, want %d", len(snap.Spans), len(want))
	}
	for i, sp := range snap.Spans {
		got := sp.Name + ": "
		for _, c := range sp.Children {
			got += c.Name + " "
		}
		if got != want[i] {
			t.Errorf("span %d = %q, want %q", i, got, want[i])
		}
	}
}
