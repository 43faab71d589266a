package datasets

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pareto/internal/pivots"
	"pareto/internal/sketch"
	"pareto/internal/strata"
)

func TestZipfWeights(t *testing.T) {
	w := zipfWeights(5, 1.0)
	var sum float64
	for i, v := range w {
		sum += v
		if i > 0 && v > w[i-1] {
			t.Error("weights must be non-increasing")
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum %v", sum)
	}
	u := zipfWeights(4, 0)
	for _, v := range u {
		if math.Abs(v-0.25) > 1e-12 {
			t.Errorf("skew 0 not uniform: %v", u)
		}
	}
}

// linearSampleIndex is the scan sampleIndex replaced: add the weights
// one by one and stop at the first running sum above the draw.
func linearSampleIndex(rng *rand.Rand, weights []float64) int {
	u := rng.Float64()
	var acc float64
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// TestSampleIndexMatchesLinearScan holds the binary search over running
// sums to the linear scan, draw for draw from one seed, on the weight
// vectors the generators draw from (groups, tree labels, topics, a
// text band) and on one whose total falls short of 1, where the last
// index takes every draw above the total.
func TestSampleIndexMatchesLinearScan(t *testing.T) {
	draws := 2_000_000
	if testing.Short() {
		draws = 100_000
	}
	cases := [][]float64{
		zipfWeights(10, 0.9),
		zipfWeights(12, 0.8),
		zipfWeights(60, 1.0),
		zipfWeights(1493, 1.05),
		{0.1, 0.2, 0, 0.2},
	}
	for _, w := range cases {
		c := cumulative(slices.Clone(w))
		a, b := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
		for d := 0; d < draws; d++ {
			if got, want := sampleIndex(a, c), linearSampleIndex(b, w); got != want {
				t.Fatalf("k=%d draw %d: sampleIndex %d, linear scan %d", len(w), d, got, want)
			}
		}
	}
}

func TestGenerateTreesShape(t *testing.T) {
	cfg := SwissProtLike(0.01) // ~595 trees
	trees, truth, err := GenerateTrees(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != cfg.NumTrees || len(truth) != cfg.NumTrees {
		t.Fatalf("%d trees, want %d", len(trees), cfg.NumTrees)
	}
	totalNodes := 0
	for i := range trees {
		if err := trees[i].Validate(); err != nil {
			t.Fatalf("tree %d invalid: %v", i, err)
		}
		totalNodes += trees[i].NumNodes()
		if truth[i] < 0 || truth[i] >= cfg.NumGroups {
			t.Fatalf("tree %d group %d out of range", i, truth[i])
		}
	}
	meanNodes := float64(totalNodes) / float64(len(trees))
	if meanNodes < float64(cfg.MeanNodes)*0.7 || meanNodes > float64(cfg.MeanNodes)*1.3 {
		t.Errorf("mean nodes %.1f, want ≈%d", meanNodes, cfg.MeanNodes)
	}
}

func TestGenerateTreesDeterministic(t *testing.T) {
	cfg := TreebankLike(0.005)
	a, ta, err := GenerateTrees(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, tb, err := GenerateTrees(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ta, tb) || !reflect.DeepEqual(a[0], b[0]) || !reflect.DeepEqual(a[len(a)-1], b[len(b)-1]) {
		t.Error("generator not deterministic")
	}
}

func TestTreeGroupsAreSeparable(t *testing.T) {
	// Same-group trees must share far more pivots than cross-group
	// trees — otherwise stratification has nothing to find.
	cfg := SwissProtLike(0.005)
	trees, truth, err := GenerateTrees(cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := pivots.NewTreeCorpus(trees)
	if err != nil {
		t.Fatal(err)
	}
	var intra, inter float64
	var ni, nx int
	for i := 0; i < corpus.Len() && ni+nx < 4000; i++ {
		for j := i + 1; j < corpus.Len() && j < i+20; j++ {
			sim := sketch.ExactJaccard(corpus.AppendItems(nil, i), corpus.AppendItems(nil, j))
			if truth[i] == truth[j] {
				intra += sim
				ni++
			} else {
				inter += sim
				nx++
			}
		}
	}
	if ni == 0 || nx == 0 {
		t.Fatal("sampling found no pairs")
	}
	intra /= float64(ni)
	inter /= float64(nx)
	if intra < 2*inter {
		t.Errorf("intra-group Jaccard %.4f not well above inter %.4f", intra, inter)
	}
}

func TestGenerateTreesValidation(t *testing.T) {
	bad := TreeConfig{}
	if _, _, err := GenerateTrees(bad); err == nil {
		t.Error("zero config accepted")
	}
	c := SwissProtLike(0.001)
	c.Branchiness = 2
	if _, _, err := GenerateTrees(c); err == nil {
		t.Error("branchiness > 1 accepted")
	}
}

func TestGenerateGraphShape(t *testing.T) {
	cfg := UKLike(0.0005) // ~5.5k vertices
	g, hosts, err := GenerateGraph(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != cfg.NumVertices {
		t.Fatalf("%d vertices, want %d", g.NumVertices(), cfg.NumVertices)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	meanDeg := float64(g.NumEdges()) / float64(g.NumVertices())
	if meanDeg < float64(cfg.MeanDegree)*0.6 || meanDeg > float64(cfg.MeanDegree)*1.4 {
		t.Errorf("mean degree %.1f, want ≈%d", meanDeg, cfg.MeanDegree)
	}
	// Hosts are contiguous ID ranges.
	for v := 1; v < len(hosts); v++ {
		if hosts[v] < hosts[v-1] {
			t.Fatal("host IDs not monotone over vertex IDs")
		}
	}
}

func TestGraphLocality(t *testing.T) {
	cfg := UKLike(0.0005)
	g, hosts, err := GenerateGraph(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameHost, total := 0, 0
	for v, nbrs := range g.Adj {
		for _, u := range nbrs {
			total++
			if hosts[v] == hosts[u] {
				sameHost++
			}
		}
	}
	frac := float64(sameHost) / float64(total)
	if frac < 0.6 {
		t.Errorf("same-host edge fraction %.2f, want ≥ 0.6 (web locality)", frac)
	}
}

func TestGenerateGraphValidation(t *testing.T) {
	if _, _, err := GenerateGraph(GraphConfig{}); err == nil {
		t.Error("zero config accepted")
	}
	c := UKLike(0.001)
	c.CopyProb = 1
	if _, _, err := GenerateGraph(c); err == nil {
		t.Error("copy prob 1 accepted")
	}
}

func TestGenerateTextShape(t *testing.T) {
	cfg := RCV1Like(0.0005) // ~400 docs
	docs, truth, err := GenerateText(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != cfg.NumDocs {
		t.Fatalf("%d docs", len(docs))
	}
	corpus, err := pivots.NewTextCorpus(docs, cfg.VocabSize)
	if err != nil {
		t.Fatalf("generated corpus invalid: %v", err)
	}
	_ = corpus
	for i, tr := range truth {
		if tr < 0 || tr >= cfg.NumTopics {
			t.Fatalf("doc %d topic %d", i, tr)
		}
	}
}

func TestTextTopicsStratify(t *testing.T) {
	// End-to-end: the stratifier must recover the planted topics with
	// decent purity — this is the property the whole pipeline needs.
	cfg := RCV1Like(0.0008)
	cfg.NumTopics = 4
	docs, truth, err := GenerateText(cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := pivots.NewTextCorpus(docs, cfg.VocabSize)
	if err != nil {
		t.Fatal(err)
	}
	s, err := strata.Stratify(corpus, strata.StratifierConfig{
		SketchWidth: 48,
		Cluster:     strata.Config{K: 4, L: 3, Seed: 11},
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	correct, total := 0, 0
	for _, members := range s.Members {
		if len(members) == 0 {
			continue
		}
		counts := map[int]int{}
		for _, i := range members {
			counts[truth[i]]++
		}
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		correct += best
		total += len(members)
	}
	purity := float64(correct) / float64(total)
	if purity < 0.7 {
		t.Errorf("stratification purity %.2f on planted topics", purity)
	}
}

func TestGenerateTextValidation(t *testing.T) {
	if _, _, err := GenerateText(TextConfig{}); err == nil {
		t.Error("zero config accepted")
	}
	c := RCV1Like(0.001)
	c.TopicPurity = 1.5
	if _, _, err := GenerateText(c); err == nil {
		t.Error("purity > 1 accepted")
	}
}

func TestStatsSummaries(t *testing.T) {
	trees, _, err := GenerateTrees(SwissProtLike(0.001))
	if err != nil {
		t.Fatal(err)
	}
	ts := TreeStats("swissprot", trees)
	if ts.Records != len(trees) || ts.Units <= 0 || ts.Kind != pivots.TreeData {
		t.Errorf("tree stats %+v", ts)
	}
	g, _, err := GenerateGraph(UKLike(0.0002))
	if err != nil {
		t.Fatal(err)
	}
	gs := GraphStats("uk", g)
	if gs.Records != g.NumVertices() || gs.Units != g.NumEdges() {
		t.Errorf("graph stats %+v", gs)
	}
	docs, _, err := GenerateText(RCV1Like(0.0003))
	if err != nil {
		t.Fatal(err)
	}
	xs := TextStats("rcv1", docs, 1000)
	if xs.Records != len(docs) || xs.VocabOrN != 1000 {
		t.Errorf("text stats %+v", xs)
	}
}

func TestScaleFloors(t *testing.T) {
	// Tiny scales must still produce usable datasets.
	if cfg := SwissProtLike(1e-9); cfg.NumTrees < 10 {
		t.Error("tree floor broken")
	}
	if cfg := UKLike(1e-9); cfg.NumVertices < 100 {
		t.Error("graph floor broken")
	}
	if cfg := RCV1Like(1e-9); cfg.NumDocs < 20 || cfg.VocabSize < 500 {
		t.Error("text floor broken")
	}
}
