package pareto

import (
	"testing"

	"pareto/internal/datasets"
	"pareto/internal/sampling"
)

func quickFramework(t *testing.T) (*Framework, *TextCorpus) {
	t.Helper()
	cfg := datasets.RCV1Like(0.0005)
	docs, _, err := datasets.GenerateText(cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := NewTextCorpus(docs, cfg.VocabSize)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := PaperCluster(4, DefaultPanel(), 172, 48)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := New(corpus, cl)
	if err != nil {
		t.Fatal(err)
	}
	return fw, corpus
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("nil corpus accepted")
	}
	corpus, err := NewTextCorpus([]Doc{{Terms: []uint32{1}}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(corpus, nil); err == nil {
		t.Error("nil cluster accepted")
	}
}

func TestFrameworkEndToEnd(t *testing.T) {
	fw, corpus := quickFramework(t)
	fw.TraceOffset = 12 * 3600
	profile := func(indices []int) (float64, error) {
		var c float64
		for _, i := range indices {
			c += 1000 * float64(corpus.Weight(i))
		}
		return c, nil
	}
	run := func(node int, indices []int) (float64, error) {
		return profile(indices)
	}
	base, err := fw.Plan(Stratified, nil)
	if err != nil {
		t.Fatal(err)
	}
	het, err := fw.Plan(HetAware, profile)
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := fw.Execute(base, run)
	if err != nil {
		t.Fatal(err)
	}
	hetRes, err := fw.Execute(het, run)
	if err != nil {
		t.Fatal(err)
	}
	if hetRes.Makespan >= baseRes.Makespan {
		t.Errorf("Het-Aware %.3fs not below baseline %.3fs", hetRes.Makespan, baseRes.Makespan)
	}
	// Place to memory and verify coverage.
	st := NewMemoryStore()
	if err := fw.PlaceTo(het, st); err != nil {
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
	if err := fw.PlaceTo(nil, st); err == nil {
		t.Error("nil plan accepted by PlaceTo")
	}
}

func TestFrameworkEnergyAware(t *testing.T) {
	fw, corpus := quickFramework(t)
	fw.TraceOffset = 12 * 3600
	fw.Alpha = 0.99
	profile := func(indices []int) (float64, error) {
		var c float64
		for _, i := range indices {
			c += 1000 * float64(corpus.Weight(i))
		}
		return c, nil
	}
	run := func(node int, indices []int) (float64, error) { return profile(indices) }
	het, err := fw.Plan(HetAware, profile)
	if err != nil {
		t.Fatal(err)
	}
	hea, err := fw.Plan(HetEnergyAware, profile)
	if err != nil {
		t.Fatal(err)
	}
	hetRes, err := fw.Execute(het, run)
	if err != nil {
		t.Fatal(err)
	}
	heaRes, err := fw.Execute(hea, run)
	if err != nil {
		t.Fatal(err)
	}
	if heaRes.DirtyEnergy > hetRes.DirtyEnergy {
		t.Errorf("energy-aware dirty %.1f J above time-only %.1f J",
			heaRes.DirtyEnergy, hetRes.DirtyEnergy)
	}
	if fw.Corpus() != corpus || fw.Cluster() == nil {
		t.Error("accessors broken")
	}
}

func TestFacadeModelerReExports(t *testing.T) {
	nodes := []NodeModel{
		{Time: sampling.LinearFit{Slope: 0.001}, DirtyRate: 300},
		{Time: sampling.LinearFit{Slope: 0.002}, DirtyRate: 50},
		{Time: sampling.LinearFit{Slope: 0.004}, DirtyRate: 0},
	}
	pts, err := Frontier(nodes, 100000, DefaultAlphaSweep())
	if err != nil || len(pts) == 0 {
		t.Fatalf("Frontier: %v", err)
	}
	exact, err := ExactFrontier(nodes, 100000, 1e-6)
	if err != nil || len(exact) == 0 {
		t.Fatalf("ExactFrontier: %v", err)
	}
	chosen, plan, err := SelectNodes(nodes, 100000, 2, 1)
	if err != nil || len(chosen) != 2 || plan == nil {
		t.Fatalf("SelectNodes: %v %v", chosen, err)
	}
}

func TestFrontierEmptySweep(t *testing.T) {
	nodes := []NodeModel{{Time: sampling.LinearFit{Slope: 0.001}, DirtyRate: 300}}
	if _, err := Frontier(nodes, 100, nil); err == nil {
		t.Error("empty sweep accepted")
	}
}
