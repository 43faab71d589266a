package strata

import (
	"testing"

	"pareto/internal/pivots"
	"pareto/internal/sketch"
)

// clusteredTextCorpus builds a corpus with k planted topics: documents
// of topic c draw terms from a disjoint vocabulary band.
func clusteredTextCorpus(t *testing.T, nDocs, k int) (*pivots.TextCorpus, []int) {
	t.Helper()
	const bandWidth = 50
	const docTerms = 20
	docs := make([]pivots.Doc, nDocs)
	truth := make([]int, nDocs)
	for i := range docs {
		c := i % k
		truth[i] = c
		terms := make([]uint32, 0, docTerms)
		for j := 0; j < docTerms; j++ {
			// Deterministic but varied term choice inside the band.
			term := uint32(c*bandWidth + (i*7+j*3)%bandWidth)
			terms = append(terms, term)
		}
		// Sort + dedup to satisfy corpus invariants.
		docs[i] = pivots.Doc{Terms: dedupSorted(terms)}
	}
	corpus, err := pivots.NewTextCorpus(docs, k*bandWidth)
	if err != nil {
		t.Fatal(err)
	}
	return corpus, truth
}

func dedupSorted(terms []uint32) []uint32 {
	seen := map[uint32]bool{}
	var out []uint32
	for _, x := range terms {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

func TestStratifyEmptyCorpus(t *testing.T) {
	corpus, err := pivots.NewTextCorpus(nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Stratify(corpus, StratifierConfig{Cluster: Config{K: 2, L: 2}}); err == nil {
		t.Error("empty corpus must fail")
	}
}

func TestStratifySeparatesTopics(t *testing.T) {
	corpus, truth := clusteredTextCorpus(t, 240, 3)
	s, err := Stratify(corpus, StratifierConfig{
		SketchWidth: 48,
		Cluster:     Config{K: 3, L: 3, Seed: 7},
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for c, members := range s.Members {
		if len(members) == 0 {
			continue
		}
		counts := map[int]int{}
		for _, i := range members {
			counts[truth[i]]++
		}
		best := 0
		for _, n := range counts {
			if n > best {
				best = n
			}
		}
		if purity := float64(best) / float64(len(members)); purity < 0.85 {
			t.Errorf("stratum %d purity %.2f", c, purity)
		}
	}
}

func TestStratifyWeightTotals(t *testing.T) {
	corpus, _ := clusteredTextCorpus(t, 60, 2)
	s, err := Stratify(corpus, StratifierConfig{Cluster: Config{K: 2, L: 2, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, w := range s.WeightTotals {
		sum += w
	}
	want := 0
	for i := 0; i < corpus.Len(); i++ {
		want += corpus.Weight(i)
	}
	if sum != want {
		t.Errorf("weight totals sum %d, want %d", sum, want)
	}
}

func TestStratifyDefaultWidth(t *testing.T) {
	corpus, _ := clusteredTextCorpus(t, 30, 2)
	s, err := Stratify(corpus, StratifierConfig{Cluster: Config{K: 2, L: 2, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Sketches[0]) != DefaultSketchWidth {
		t.Errorf("sketch width %d, want default %d", len(s.Sketches[0]), DefaultSketchWidth)
	}
}

// SketchCorpus sketches every record through the bulk path
// (Hasher.SketchAll), the way Stratify does, without clustering.
func SketchCorpus(c pivots.Corpus, h *sketch.Hasher, workers int) []sketch.Sketch {
	sketches, _ := h.SketchAll(c.Len(), c.AppendItems, workers)
	return sketches
}

func TestSketchCorpusParallelMatchesSerial(t *testing.T) {
	corpus, _ := clusteredTextCorpus(t, 100, 4)
	h, err := sketch.NewHasher(16, 5)
	if err != nil {
		t.Fatal(err)
	}
	a := SketchCorpus(corpus, h, 1)
	b := SketchCorpus(corpus, h, 7)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("sketch %d differs between 1 and 7 workers", i)
			}
		}
	}
}

func TestStratifyStats(t *testing.T) {
	corpus, _ := clusteredTextCorpus(t, 120, 3)
	s, err := Stratify(corpus, StratifierConfig{Cluster: Config{K: 3, L: 2, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats
	if st.SketchTime <= 0 || st.ClusterTime <= 0 || st.Busy <= 0 {
		t.Errorf("stage times not recorded: %+v", st)
	}
	if st.Iterations != s.Iterations || st.Converged != s.Converged {
		t.Errorf("stats loop shape (%d, %v) disagrees with result (%d, %v)",
			st.Iterations, st.Converged, s.Iterations, s.Converged)
	}
	if len(st.Iters) != s.Iterations {
		t.Errorf("%d per-iteration stats for %d iterations", len(st.Iters), s.Iterations)
	}
	if st.MovedTotal < corpus.Len() {
		t.Errorf("MovedTotal %d below corpus size %d (round 1 moves every record)",
			st.MovedTotal, corpus.Len())
	}
}
