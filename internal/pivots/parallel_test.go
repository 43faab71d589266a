// Equivalence and determinism tests for the parallel corpus
// constructors and record decoders: at every worker count the results
// must match the sequential path exactly, and errors must name the
// same (lowest) failing record the sequential loop would.
package pivots_test

import (
	"runtime"
	"sort"
	"strings"
	"testing"

	"pareto/internal/datasets"
	"pareto/internal/pivots"
	"pareto/internal/sketch"
)

var workerCounts = []int{1, 2, 3, 8, runtime.NumCPU()}

func testTrees(t testing.TB, scale float64) []pivots.Tree {
	t.Helper()
	trees, _, err := datasets.GenerateTrees(datasets.TreebankLike(scale))
	if err != nil {
		t.Fatal(err)
	}
	return trees
}

// sortedItems returns a sorted copy of an item set, so the comparison
// holds corpora to set equality — all MinHash minima depend on — and
// not to the order a corpus happens to emit its items in.
func sortedItems(s []sketch.Item) []sketch.Item {
	c := append([]sketch.Item(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

func sameItemSets(t *testing.T, workers int, ref, got pivots.Corpus) {
	t.Helper()
	if ref.Len() != got.Len() {
		t.Fatalf("workers=%d: Len %d, want %d", workers, got.Len(), ref.Len())
	}
	for i := 0; i < ref.Len(); i++ {
		if got.Weight(i) != ref.Weight(i) {
			t.Fatalf("workers=%d: Weight(%d) = %d, want %d", workers, i, got.Weight(i), ref.Weight(i))
		}
		a, b := sortedItems(ref.AppendItems(nil, i)), sortedItems(got.AppendItems(nil, i))
		if len(a) != len(b) {
			t.Fatalf("workers=%d: record %d has %d items, want %d", workers, i, len(b), len(a))
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("workers=%d: record %d item sets differ", workers, i)
			}
		}
	}
}

func TestNewTreeCorpusParallelEquivalence(t *testing.T) {
	trees := testTrees(t, 0.01)
	ref, err := pivots.NewTreeCorpusParallel(trees, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		c, err := pivots.NewTreeCorpusParallel(trees, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		sameItemSets(t, w, ref, c)
	}
}

func TestNewTreeCorpusParallelErrorIndex(t *testing.T) {
	trees := testTrees(t, 0.01)
	// Invalidate two records; every worker count must report the lower
	// index, exactly as the sequential loop does.
	trees[5].Parent = nil
	trees[20].Parent = nil
	for _, w := range workerCounts {
		_, err := pivots.NewTreeCorpusParallel(trees, w)
		if err == nil || !strings.Contains(err.Error(), "tree 5:") {
			t.Errorf("workers=%d: err = %v, want tree 5 reported", w, err)
		}
	}
}

func TestDecodeTreeRecordsParallelRoundtrip(t *testing.T) {
	trees := testTrees(t, 0.005)
	corpus, err := pivots.NewTreeCorpus(trees)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for i := 0; i < corpus.Len(); i++ {
		buf = corpus.AppendRecord(buf, i)
	}
	for _, w := range workerCounts {
		got, err := pivots.DecodeTreeRecordsParallel(buf, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(got) != len(trees) {
			t.Fatalf("workers=%d: decoded %d trees, want %d", w, len(got), len(trees))
		}
		for i := range trees {
			if len(got[i].Parent) != len(trees[i].Parent) {
				t.Fatalf("workers=%d: tree %d has %d nodes, want %d", w, i, len(got[i].Parent), len(trees[i].Parent))
			}
			for k := range trees[i].Parent {
				if got[i].Parent[k] != trees[i].Parent[k] || got[i].Label[k] != trees[i].Label[k] {
					t.Fatalf("workers=%d: tree %d differs at node %d", w, i, k)
				}
			}
		}
	}
	// A truncated stream must fail identically at every worker count.
	seqTrees, seqErr := pivots.DecodeTreeRecords(buf[:len(buf)-3])
	if seqErr == nil || seqTrees != nil {
		t.Fatal("truncated stream must fail")
	}
	for _, w := range workerCounts {
		_, err := pivots.DecodeTreeRecordsParallel(buf[:len(buf)-3], w)
		if err == nil || err.Error() != seqErr.Error() {
			t.Errorf("workers=%d: err = %v, want %v", w, err, seqErr)
		}
	}
}

func TestNewTextCorpusParallelEquivalence(t *testing.T) {
	cfg := datasets.RCV1Like(0.0005)
	docs, _, err := datasets.GenerateText(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := pivots.NewTextCorpusParallel(docs, cfg.VocabSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		c, err := pivots.NewTextCorpusParallel(docs, cfg.VocabSize, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		sameItemSets(t, w, ref, c)
	}
	// Round-trip the wire form through the parallel decoder.
	var buf []byte
	for i := 0; i < ref.Len(); i++ {
		buf = ref.AppendRecord(buf, i)
	}
	seqDocs, seqVocab, err := pivots.DecodeTextRecords(buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		got, vocab, err := pivots.DecodeTextRecordsParallel(buf, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if vocab != seqVocab || len(got) != len(seqDocs) {
			t.Fatalf("workers=%d: vocab %d / %d docs, want %d / %d", w, vocab, len(got), seqVocab, len(seqDocs))
		}
		for i := range seqDocs {
			if len(got[i].Terms) != len(seqDocs[i].Terms) {
				t.Fatalf("workers=%d: doc %d has %d terms, want %d", w, i, len(got[i].Terms), len(seqDocs[i].Terms))
			}
			for k := range seqDocs[i].Terms {
				if got[i].Terms[k] != seqDocs[i].Terms[k] {
					t.Fatalf("workers=%d: doc %d differs at term %d", w, i, k)
				}
			}
		}
	}
}

func TestNewGraphCorpusParallelEquivalence(t *testing.T) {
	g, _, err := datasets.GenerateGraph(datasets.UKLike(0.0005))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := pivots.NewGraphCorpusParallel(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		c, err := pivots.NewGraphCorpusParallel(g, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		sameItemSets(t, w, ref, c)
	}
}

func BenchmarkNewTreeCorpus(b *testing.B) {
	trees := testTrees(b, 0.2) // ~11k Treebank-shaped trees
	for _, tc := range []struct {
		name    string
		workers int
	}{{"seq", 1}, {"par", 0}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pivots.NewTreeCorpusParallel(trees, tc.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
