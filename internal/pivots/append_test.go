package pivots_test

import (
	"math/rand"
	"slices"
	"testing"

	"pareto/internal/datasets"
	"pareto/internal/pivots"
	"pareto/internal/sketch"
)

// appendCorpora builds one small corpus of each kind from the
// generators, with the set AppendItems must append for each record.
func appendCorpora(t *testing.T) map[string]struct {
	c    pivots.Corpus
	want func(i int) []sketch.Item
} {
	t.Helper()
	trees := testTrees(t, 0.005)
	tc, err := pivots.NewTreeCorpus(trees)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := datasets.GenerateGraph(datasets.UKLike(0.00005))
	if err != nil {
		t.Fatal(err)
	}
	gc, err := pivots.NewGraphCorpus(g)
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
	items := func(xs []uint32) []sketch.Item {
		out := make([]sketch.Item, len(xs))
		for k, x := range xs {
			out[k] = sketch.Item(x)
		}
		return out
	}
	return map[string]struct {
		c    pivots.Corpus
		want func(i int) []sketch.Item
	}{
		"tree":  {tc, func(i int) []sketch.Item { return trees[i].Pivots() }},
		"graph": {gc, func(i int) []sketch.Item { return items(g.Adj[i]) }},
		"text":  {xc, func(i int) []sketch.Item { return items(docs[i].Terms) }},
	}
}

// TestAppendItemsKeepsPrefix appends every record behind a prefix into
// one reused buffer, as SketchAll's chunks do, whose spare capacity
// holds the previous record's leftovers: the prefix must stay, and
// exactly the record's ascending, duplicate-free set must follow it.
func TestAppendItemsKeepsPrefix(t *testing.T) {
	prefix := []sketch.Item{^sketch.Item(0), 0, 42}
	for name, tc := range appendCorpora(t) {
		if tc.c.Len() < 10 {
			t.Fatalf("%s: only %d records", name, tc.c.Len())
		}
		buf := slices.Clone(prefix)
		for i := 0; i < tc.c.Len(); i++ {
			buf = tc.c.AppendItems(buf[:len(prefix)], i)
			if !slices.Equal(buf[:len(prefix)], prefix) {
				t.Fatalf("%s record %d: prefix became %v", name, i, buf[:len(prefix)])
			}
			got := buf[len(prefix):]
			for k := 1; k < len(got); k++ {
				if got[k-1] >= got[k] {
					t.Fatalf("%s record %d: items not strictly ascending at %d", name, i, k)
				}
			}
			if want := tc.want(i); !slices.Equal(got, want) {
				t.Fatalf("%s record %d: appended %v, want %v", name, i, got, want)
			}
		}
	}
}

// TestSketchAllOfCorpusMatchesSketch: the bulk path, one reused buffer
// per chunk, is bit-identical to sketching each record's set alone.
func TestSketchAllOfCorpusMatchesSketch(t *testing.T) {
	h, err := sketch.NewHasher(32, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range appendCorpora(t) {
		for _, w := range []int{1, 4} {
			got, _ := h.SketchAll(tc.c.Len(), tc.c.AppendItems, w)
			for i := range got {
				if want := h.Sketch(tc.c.AppendItems(nil, i)); !slices.Equal(got[i], want) {
					t.Fatalf("%s workers=%d: record %d sketch differs", name, w, i)
				}
			}
		}
	}
}

// TestSketchFreshCorpusAllocations builds and sketches a text corpus:
// the sketch arena and its table, the parallel fan-out and each chunk's
// item buffer, which grows a few times, and nothing per document (15
// objects at 1 worker and 155 at 4, where 16 chunks each grow one).
func TestSketchFreshCorpusAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	docs := make([]pivots.Doc, 4000)
	for i := range docs {
		terms := make([]uint32, 1+rng.Intn(100))
		for k := range terms {
			terms[k] = uint32(k*50 + rng.Intn(50))
		}
		docs[i] = pivots.Doc{Terms: terms}
	}
	h, err := sketch.NewHasher(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4} {
		allocs := testing.AllocsPerRun(5, func() {
			c, err := pivots.NewTextCorpusParallel(docs, 5000, w)
			if err != nil {
				t.Fatal(err)
			}
			h.SketchAll(c.Len(), c.AppendItems, w)
		})
		if limit := float64(len(docs) / 10); allocs > limit {
			t.Errorf("workers=%d: building and sketching %d documents allocates %v objects, want ≤ %v", w, len(docs), allocs, limit)
		}
	}
}
