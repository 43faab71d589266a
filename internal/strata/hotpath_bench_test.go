package strata

import (
	"math/rand"
	"sort"
	"testing"

	"pareto/internal/datasets"
	"pareto/internal/pivots"
	"pareto/internal/sketch"
)

// hotPathN is the corpus size for the hot-path benchmarks: the Fig. 2 /
// Fig. 4 synthetic scale the ISSUE targets. Short mode (CI smoke) runs
// a reduced corpus so the benchmark stays a compile-and-race check.
func hotPathN(b *testing.B) int {
	if testing.Short() {
		return 4_000
	}
	return 50_000
}

// hotPathCorpus builds a synthetic text corpus with planted topics, the
// same shape the paper's RCV1-like generator plants (latent strata with
// disjoint vocabulary bands plus uniform noise).
func hotPathCorpus(b *testing.B, nDocs, topics int) *pivots.TextCorpus {
	b.Helper()
	const bandWidth = 400
	const docTerms = 40
	vocab := topics * bandWidth
	rng := rand.New(rand.NewSource(1))
	docs := make([]pivots.Doc, nDocs)
	for i := range docs {
		c := i % topics
		seen := make(map[uint32]bool, docTerms)
		terms := make([]uint32, 0, docTerms)
		for len(terms) < docTerms {
			t := uint32(c*bandWidth + rng.Intn(bandWidth))
			if rng.Float64() < 0.1 {
				t = uint32(rng.Intn(vocab)) // cross-topic noise
			}
			if !seen[t] {
				seen[t] = true
				terms = append(terms, t)
			}
		}
		sort.Slice(terms, func(a, b int) bool { return terms[a] < terms[b] })
		docs[i] = pivots.Doc{Terms: terms}
	}
	corpus, err := pivots.NewTextCorpus(docs, vocab)
	if err != nil {
		b.Fatal(err)
	}
	return corpus
}

// hotPathConfig is the paper-scale stratifier shape: K = 4·p strata for
// p = 8 partitions, L = 3 composite values, 32-wide sketches.
func hotPathConfig() StratifierConfig {
	return StratifierConfig{
		SketchWidth: 32,
		Cluster:     Config{K: 32, L: 3, Seed: 7},
		Seed:        3,
	}
}

// BenchmarkStratifyHotPath measures the full planner-critical path:
// corpus → sketches → compositeKModes strata (ISSUE 1 acceptance
// benchmark).
func BenchmarkStratifyHotPath(b *testing.B) {
	corpus := hotPathCorpus(b, hotPathN(b), 32)
	cfg := hotPathConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Stratify(corpus, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if s.K() == 0 {
			b.Fatal("no strata")
		}
	}
}

// BenchmarkStratifySketchStage isolates the sketching stage of the
// pipeline (items appended from the records, then sketched at width
// 32) on the planted-topic text corpus and on SwissProt-like trees,
// whose items are hashed LCA pivots.
func BenchmarkStratifySketchStage(b *testing.B) {
	h, err := sketch.NewHasher(32, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("text", func(b *testing.B) {
		benchSketch(b, h, hotPathCorpus(b, hotPathN(b), 32))
	})
	b.Run("tree", func(b *testing.B) {
		benchSketch(b, h, hotPathTrees(b))
	})
}

func benchSketch(b *testing.B, h *sketch.Hasher, corpus pivots.Corpus) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := SketchCorpus(corpus, h, 0)
		if len(out) != corpus.Len() {
			b.Fatal("short sketch set")
		}
	}
}

// BenchmarkStratifyClusterStage isolates compositeKModes over
// pre-computed sketches (K = 32, L = 3, width 32), on two corpus shapes:
// the planted-topic text corpus, and SwissProt-like trees, whose sketch
// coordinates take several times more distinct values — what the
// tree_mining_mem planner clusters.
func BenchmarkStratifyClusterStage(b *testing.B) {
	h, err := sketch.NewHasher(32, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("text", func(b *testing.B) {
		benchCluster(b, SketchCorpus(hotPathCorpus(b, hotPathN(b), 32), h, 0))
	})
	b.Run("tree", func(b *testing.B) {
		benchCluster(b, SketchCorpus(hotPathTrees(b), h, 0))
	})
}

// hotPathTrees builds a SwissProt-like tree corpus at a fifth of the
// paper's 59,545 trees (a fiftieth in short mode).
func hotPathTrees(b *testing.B) *pivots.TreeCorpus {
	b.Helper()
	scale := 0.2
	if testing.Short() {
		scale = 0.02
	}
	trees, _, err := datasets.GenerateTrees(datasets.SwissProtLike(scale))
	if err != nil {
		b.Fatal(err)
	}
	corpus, err := pivots.NewTreeCorpus(trees)
	if err != nil {
		b.Fatal(err)
	}
	return corpus
}

func benchCluster(b *testing.B, sketches []sketch.Sketch) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cluster(sketches, Config{K: 32, L: 3, Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}
