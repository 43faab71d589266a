package strata

import (
	"reflect"
	"testing"

	"pareto/internal/datasets"
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
	if st.Iterations != s.Iterations {
		t.Errorf("stats count %d rounds, result %d", st.Iterations, s.Iterations)
	}
	if len(s.IterStats) != s.Iterations {
		t.Fatalf("%d per-iteration stats for %d iterations", len(s.IterStats), s.Iterations)
	}
	if last := s.IterStats[s.Iterations-1]; s.Converged != (last.Moved == 0) {
		t.Errorf("converged %v, but the last round moved %d records", s.Converged, last.Moved)
	}
	if st.MovedTotal < corpus.Len() {
		t.Errorf("MovedTotal %d below corpus size %d (round 1 moves every record)",
			st.MovedTotal, corpus.Len())
	}
}

// TestStratifyIsSketchPassThenStratifySketches holds Stratify to its two
// halves on tree, text and graph corpora: the sketch pass, then
// StratifySketches over the sketches it made. Everything but the
// wall-clock timings must be equal, and the sketches handed in are the
// ones kept.
func TestStratifyIsSketchPassThenStratifySketches(t *testing.T) {
	trees, _, err := datasets.GenerateTrees(datasets.SwissProtLike(0.005))
	if err != nil {
		t.Fatal(err)
	}
	tc, err := pivots.NewTreeCorpus(trees)
	if err != nil {
		t.Fatal(err)
	}
	docs, _, err := datasets.GenerateText(datasets.RCV1Like(0.0005))
	if err != nil {
		t.Fatal(err)
	}
	xc, err := pivots.NewTextCorpus(docs, datasets.RCV1Like(0.0005).VocabSize)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := datasets.GenerateGraph(datasets.UKLike(0.00003))
	if err != nil {
		t.Fatal(err)
	}
	gc, err := pivots.NewGraphCorpus(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		corpus pivots.Corpus
		cfg    StratifierConfig
	}{
		{"tree", tc, StratifierConfig{Cluster: Config{K: 8, L: 3, Seed: 7}, Seed: 11}},
		{"text", xc, StratifierConfig{SketchWidth: 24, Cluster: Config{K: 5, L: 2, Seed: 3, Workers: 3}, Seed: 5}},
		{"graph", gc, StratifierConfig{Cluster: Config{K: 70, L: 3, Seed: 1}, Seed: 2}},
	} {
		want, err := Stratify(c.corpus, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		h, err := sketch.NewHasher(c.cfg.Width(), c.cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		sketches := SketchCorpus(c.corpus, h, 2)
		got, err := StratifySketches(c.corpus, sketches, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if &got.Sketches[0] != &sketches[0] {
			t.Errorf("%s: StratifySketches copied the sketches it was given", c.name)
		}
		if got.Stats.SketchTime != 0 {
			t.Errorf("%s: StratifySketches reports sketch time %v", c.name, got.Stats.SketchTime)
		}
		untimed(want)
		untimed(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: StratifySketches over the sketch pass differs from Stratify", c.name)
		}
	}
}

// untimed zeroes st's wall-clock fields, which differ run to run.
func untimed(st *Stratification) {
	st.Busy, st.Stats.SketchTime, st.Stats.ClusterTime, st.Stats.Busy = 0, 0, 0, 0
	for i := range st.IterStats {
		st.IterStats[i].Assign, st.IterStats[i].Update = 0, 0
	}
}

// TestStratifySketchesRejectsMismatch: sketches that do not match the
// corpus or the configured width are an error, not a clustering.
func TestStratifySketchesRejectsMismatch(t *testing.T) {
	corpus, _ := clusteredTextCorpus(t, 30, 2)
	cfg := StratifierConfig{Cluster: Config{K: 2, L: 2, Seed: 3}, Seed: 1}
	h, err := sketch.NewHasher(cfg.Width(), cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	sketches := SketchCorpus(corpus, h, 1)
	narrow, err := sketch.NewHasher(cfg.Width()-1, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for name, sk := range map[string][]sketch.Sketch{
		"narrow":     SketchCorpus(corpus, narrow, 1),
		"one narrow": append(append([]sketch.Sketch(nil), sketches[:29]...), sketches[29][:cfg.Width()-1]),
		"too few":    sketches[:29],
	} {
		if _, err := StratifySketches(corpus, sk, cfg); err == nil {
			t.Errorf("%s: StratifySketches accepted mismatched sketches", name)
		}
	}
	empty, err := pivots.NewTextCorpus(nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StratifySketches(empty, nil, cfg); err == nil {
		t.Error("empty corpus must fail")
	}
}
