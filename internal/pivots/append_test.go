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
// holds the previous record's leftovers: the prefix must stay, and the
// record's set must follow it. Graph and text records append exactly
// their ascending, duplicate-free set; trees append theirs in walk
// order with repeats, the same items on a second call.
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
			if tc.c.Kind() == pivots.TreeData {
				if again := tc.c.AppendItems(nil, i); !slices.Equal(got, again) {
					t.Fatalf("%s record %d: two calls disagree:\n%v\n%v", name, i, got, again)
				}
				got = slices.Compact(sortedItems(got))
			}
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

// TestTreeItemsMatchPivots: a tree's raw items, unsorted and with
// repeats, sketch exactly as its sorted set Pivots() does, and sort and
// compact to it, on every tree of seeded SwissProt-like and
// Treebank-like corpora and on single-node, chain and star trees whose
// labels repeat. The hasher's odd width pairs its last permutation
// with itself.
func TestTreeItemsMatchPivots(t *testing.T) {
	trees := []pivots.Tree{{Parent: []int32{-1}, Label: []uint32{7}}}
	for _, star := range []bool{false, true} {
		tr := pivots.Tree{Parent: make([]int32, 40), Label: make([]uint32, 40)}
		for v := range tr.Parent {
			tr.Parent[v], tr.Label[v] = int32(v)-1, uint32(v%3)
			if star && v > 0 {
				tr.Parent[v] = 0
			}
		}
		trees = append(trees, tr)
	}
	for _, cfg := range []datasets.TreeConfig{datasets.SwissProtLike(0.005), datasets.TreebankLike(0.005)} {
		gen, _, err := datasets.GenerateTrees(cfg)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, gen...)
	}
	c, err := pivots.NewTreeCorpus(trees)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sketch.NewHasher(33, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := range trees {
		items, set := c.AppendItems(nil, i), trees[i].Pivots()
		if got := slices.Compact(sortedItems(items)); !slices.Equal(got, set) {
			t.Fatalf("tree %d: sorted items %v, Pivots %v", i, got, set)
		}
		if got, want := h.Sketch(items), h.Sketch(set); !slices.Equal(got, want) {
			t.Fatalf("tree %d: sketch of the items %v, of Pivots %v", i, got, want)
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

// TestSketchFreshCorpusAllocations builds and sketches a text corpus
// and a tree corpus: the sketch arena and its table, the parallel
// fan-out and each chunk's item buffer, which grows a few times, and
// nothing per record: 17 objects for text and 9 for trees at 1 worker,
// 156 and 64 at 4, where 16 chunks each grow their own buffer. A tree
// keeps its sibling table in that buffer, and its items go unsorted.
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
	trees := make([]pivots.Tree, 4000)
	for i := range trees {
		n := 1 + rng.Intn(60)
		tr := pivots.Tree{Parent: make([]int32, n), Label: make([]uint32, n)}
		tr.Parent[0] = -1
		for v := 1; v < n; v++ {
			tr.Parent[v], tr.Label[v] = int32(rng.Intn(v)), uint32(rng.Intn(20))
		}
		trees[i] = tr
	}
	h, err := sketch.NewHasher(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	build := map[string]func(w int) (pivots.Corpus, error){
		"text": func(w int) (pivots.Corpus, error) { return pivots.NewTextCorpusParallel(docs, 5000, w) },
		"tree": func(w int) (pivots.Corpus, error) { return pivots.NewTreeCorpusParallel(trees, w) },
	}
	for name, newCorpus := range build {
		for _, w := range []int{1, 4} {
			allocs := testing.AllocsPerRun(5, func() {
				c, err := newCorpus(w)
				if err != nil {
					t.Fatal(err)
				}
				h.SketchAll(c.Len(), c.AppendItems, w)
			})
			if limit := float64(4000 / 10); allocs > limit {
				t.Errorf("%s workers=%d: building and sketching 4000 records allocates %v objects, want ≤ %v", name, w, allocs, limit)
			}
		}
	}
}
