package pareto

import (
	"testing"

	"pareto/internal/cluster"
	"pareto/internal/core"
	"pareto/internal/datasets"
	"pareto/internal/energy"
	"pareto/internal/partitioner"
	"pareto/internal/pivots"
)

// quickSetup builds the small text corpus and 4-node paper cluster the
// end-to-end tests plan over, and a profile whose cost is proportional
// to document size.
func quickSetup(t *testing.T) (*pivots.TextCorpus, *cluster.Cluster, core.ProfileFunc) {
	t.Helper()
	cfg := datasets.RCV1Like(0.0005)
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
	profile := func(indices []int) (float64, error) {
		var c float64
		for _, i := range indices {
			c += 1000 * float64(corpus.Weight(i))
		}
		return c, nil
	}
	return corpus, cl, profile
}

func TestFrameworkEndToEnd(t *testing.T) {
	corpus, cl, profile := quickSetup(t)
	const offset = 12 * 3600
	run := func(node int, indices []int) (cluster.TaskReport, error) {
		cost, err := profile(indices)
		return cluster.TaskReport{Cost: cost}, err
	}
	base, err := core.BuildPlan(corpus, cl, nil, core.Config{Strategy: core.Stratified, TraceOffset: offset})
	if err != nil {
		t.Fatal(err)
	}
	het, err := core.BuildPlan(corpus, cl, profile, core.Config{Strategy: core.HetAware, TraceOffset: offset})
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := cl.Run(offset, base.Assign.Parts, run)
	if err != nil {
		t.Fatal(err)
	}
	hetRes, err := cl.Run(offset, het.Assign.Parts, run)
	if err != nil {
		t.Fatal(err)
	}
	if hetRes.Makespan >= baseRes.Makespan {
		t.Errorf("Het-Aware %.3fs not below baseline %.3fs", hetRes.Makespan, baseRes.Makespan)
	}
	// Place to memory and verify coverage.
	st := partitioner.NewMemoryStore()
	if err := partitioner.Place(corpus, het.Assign, st); err != nil {
		t.Fatal(err)
	}
	total := 0
	for j := 0; j < het.Assign.P(); j++ {
		recs, err := st.ReadPartition(j)
		if err != nil {
			t.Fatal(err)
		}
		total += len(recs)
	}
	if total != corpus.Len() {
		t.Errorf("placed %d of %d records", total, corpus.Len())
	}
}

func TestFrameworkEnergyAware(t *testing.T) {
	corpus, cl, profile := quickSetup(t)
	const offset = 12 * 3600
	run := func(node int, indices []int) (cluster.TaskReport, error) {
		cost, err := profile(indices)
		return cluster.TaskReport{Cost: cost}, err
	}
	het, err := core.BuildPlan(corpus, cl, profile, core.Config{Strategy: core.HetAware, TraceOffset: offset})
	if err != nil {
		t.Fatal(err)
	}
	hea, err := core.BuildPlan(corpus, cl, profile, core.Config{Strategy: core.HetEnergyAware, Alpha: 0.99, TraceOffset: offset})
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
		t.Errorf("energy-aware dirty %.1f J above time-only %.1f J",
			heaRes.DirtyEnergy, hetRes.DirtyEnergy)
	}
}
