package core

import (
	"reflect"
	"runtime"
	"testing"

	"pareto/internal/cluster"
	"pareto/internal/datasets"
	"pareto/internal/energy"
	"pareto/internal/pivots"
)

// TestBuildPlanDeterministicAcrossWorkers is the tentpole's contract:
// the same corpus must yield byte-for-byte the same plan at every
// worker count — partition sizes, placements, and stratum membership
// all deep-equal. Run under -race in CI, this also shakes out data
// races in the parallel stages.
func TestBuildPlanDeterministicAcrossWorkers(t *testing.T) {
	cfg := datasets.TreebankLike(0.02) // ~1100 trees
	trees, _, err := datasets.GenerateTrees(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.PaperCluster(4, energy.DefaultPanel(), 172, 48)
	if err != nil {
		t.Fatal(err)
	}
	build := func(workers int) *Plan {
		t.Helper()
		corpus, err := pivots.NewTreeCorpusParallel(trees, workers)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := BuildPlan(corpus, cl, linearProfile(corpus), Config{
			Strategy:   HetEnergyAware,
			Alpha:      0.999,
			SampleSeed: 7,
			Workers:    workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	ref := build(1)
	for _, w := range []int{4, runtime.NumCPU()} {
		got := build(w)
		if !reflect.DeepEqual(got.Sizes, ref.Sizes) {
			t.Errorf("workers=%d: Sizes = %v, want %v", w, got.Sizes, ref.Sizes)
		}
		if !reflect.DeepEqual(got.Assign.Parts, ref.Assign.Parts) {
			t.Errorf("workers=%d: Assign.Parts differ from workers=1", w)
		}
		if !reflect.DeepEqual(got.Strat.Members, ref.Strat.Members) {
			t.Errorf("workers=%d: stratum members differ from workers=1", w)
		}
		if got.CorpusWeight != ref.CorpusWeight {
			t.Errorf("workers=%d: CorpusWeight = %d, want %d", w, got.CorpusWeight, ref.CorpusWeight)
		}
	}
}

// BenchmarkBuildPlan runs the whole planning front-end — corpus
// construction through placement computation — on a 50k-record
// Treebank-shaped tree corpus, sequential (all parallel stages pinned
// to one worker) vs parallel (GOMAXPROCS workers).
func BenchmarkBuildPlan(b *testing.B) {
	cfg := datasets.TreebankLike(1)
	cfg.NumTrees = 50000
	trees, _, err := datasets.GenerateTrees(cfg)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := cluster.PaperCluster(8, energy.DefaultPanel(), 172, 48)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, workers int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			corpus, err := pivots.NewTreeCorpusParallel(trees, workers)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := BuildPlan(corpus, cl, linearProfile(corpus), Config{
				Strategy:   HetEnergyAware,
				Alpha:      0.999,
				SampleSeed: 7,
				Workers:    workers,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("seq", func(b *testing.B) { run(b, 1) })
	b.Run("par", func(b *testing.B) { run(b, 0) })
}
