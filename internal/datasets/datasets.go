// Package datasets generates the synthetic stand-ins for the paper's
// five evaluation datasets (Table I): SwissProt and Treebank (trees),
// UK and Arabic (webgraphs), and RCV1 (text).
//
// The real datasets are not redistributable at the scale the paper
// used, and the partitioning framework is sensitive to exactly one of
// their properties: *latent content groups of skewed sizes* (protein
// families, grammar productions, web hosts, news topics). Every
// generator here plants controllable groups — records in a group share
// vocabulary/structure and records across groups do not — with
// Zipf-skewed group sizes, at any scale, deterministically per seed.
// Each *Like constructor reproduces the corresponding Table I row's
// shape at a configurable scale factor.
package datasets

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"pareto/internal/pivots"
)

// zipfWeights returns k weights ∝ 1/(i+1)^s, normalized.
func zipfWeights(k int, s float64) []float64 {
	w := make([]float64, k)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// cumulative turns weights into their running sums, in place, added in
// index order.
func cumulative(w []float64) []float64 {
	for i := 1; i < len(w); i++ {
		w[i] += w[i-1]
	}
	return w
}

// sampleIndex draws from running sums the index a linear scan adding
// the weights stops at: the first whose sum exceeds a uniform draw, or
// the last when rounding leaves the total at or below the draw.
func sampleIndex(rng *rand.Rand, cum []float64) int {
	u := rng.Float64()
	return min(sort.Search(len(cum), func(i int) bool { return u < cum[i] }), len(cum)-1)
}

// ---------------------------------------------------------------------------
// Trees
// ---------------------------------------------------------------------------

// TreeConfig parameterizes the clustered labeled-tree generator.
type TreeConfig struct {
	// NumTrees is the record count.
	NumTrees int
	// MeanNodes is the expected nodes per tree (min 1).
	MeanNodes int
	// NumGroups is the number of latent strata.
	NumGroups int
	// GroupVocab is the number of labels private to each group.
	GroupVocab int
	// SharedVocab is the number of labels common to all groups.
	SharedVocab int
	// GroupSkew is the Zipf exponent of group sizes (0 = uniform).
	GroupSkew float64
	// Branchiness in (0,1]: probability a new node attaches to a
	// random earlier node rather than the previous one. Low values
	// give chains; high values give bushy trees.
	Branchiness float64
	// Seed drives the generator.
	Seed int64
}

// Validate checks generator parameters.
func (c TreeConfig) Validate() error {
	if c.NumTrees < 1 || c.MeanNodes < 1 || c.NumGroups < 1 || c.GroupVocab < 1 {
		return fmt.Errorf("datasets: invalid tree config %+v", c)
	}
	if c.Branchiness < 0 || c.Branchiness > 1 {
		return fmt.Errorf("datasets: branchiness %v out of [0,1]", c.Branchiness)
	}
	return nil
}

// SwissProtLike mirrors Table I's SwissProt row (59,545 trees,
// ~50 nodes each) at the given scale ∈ (0, 1]: protein-family-like
// groups with moderately bushy trees.
func SwissProtLike(scale float64) TreeConfig {
	n := int(59545 * scale)
	if n < 10 {
		n = 10
	}
	return TreeConfig{
		NumTrees: n, MeanNodes: 50, NumGroups: 12,
		GroupVocab: 40, SharedVocab: 20, GroupSkew: 0.8,
		Branchiness: 0.6, Seed: 59545,
	}
}

// TreebankLike mirrors Table I's Treebank row (56,479 trees, ~43
// nodes): deeper, chain-ier parse-tree shapes and more groups.
func TreebankLike(scale float64) TreeConfig {
	n := int(56479 * scale)
	if n < 10 {
		n = 10
	}
	return TreeConfig{
		NumTrees: n, MeanNodes: 43, NumGroups: 18,
		GroupVocab: 30, SharedVocab: 15, GroupSkew: 1.1,
		Branchiness: 0.35, Seed: 56479,
	}
}

// GenerateTrees builds the tree corpus and returns the trees plus each
// tree's latent group (ground truth for stratification quality tests).
func GenerateTrees(cfg TreeConfig) ([]pivots.Tree, []int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	groupW := cumulative(zipfWeights(cfg.NumGroups, cfg.GroupSkew))
	labelW := cumulative(zipfWeights(cfg.GroupVocab+cfg.SharedVocab, 1.0))
	trees := make([]pivots.Tree, cfg.NumTrees)
	truth := make([]int, cfg.NumTrees)
	for i := range trees {
		g := sampleIndex(rng, groupW)
		truth[i] = g
		n := 1 + rng.Intn(2*cfg.MeanNodes-1) // uniform 1..2·mean−1, mean ≈ MeanNodes
		parent := make([]int32, n)
		label := make([]uint32, n)
		parent[0] = -1
		label[0] = groupLabel(rng, g, cfg, labelW)
		for v := 1; v < n; v++ {
			if rng.Float64() < cfg.Branchiness {
				parent[v] = int32(rng.Intn(v))
			} else {
				parent[v] = int32(v - 1)
			}
			label[v] = groupLabel(rng, g, cfg, labelW)
		}
		trees[i] = pivots.Tree{Parent: parent, Label: label}
	}
	return trees, truth, nil
}

// groupLabel draws a label: group-private band with high probability,
// shared band otherwise. Label IDs: group g owns
// [g·GroupVocab, (g+1)·GroupVocab); shared band sits after all groups.
func groupLabel(rng *rand.Rand, g int, cfg TreeConfig, labelW []float64) uint32 {
	li := sampleIndex(rng, labelW)
	if li < cfg.GroupVocab {
		return uint32(g*cfg.GroupVocab + li)
	}
	return uint32(cfg.NumGroups*cfg.GroupVocab + (li - cfg.GroupVocab))
}

// ---------------------------------------------------------------------------
// Graphs
// ---------------------------------------------------------------------------

// GraphConfig parameterizes the webgraph generator.
type GraphConfig struct {
	// NumVertices is the vertex count.
	NumVertices int
	// MeanDegree is the expected out-degree.
	MeanDegree int
	// NumHosts is the number of host groups (latent strata). Vertex
	// IDs are contiguous within a host, as in real URL-ordered
	// webgraphs — the property reference compression exploits.
	NumHosts int
	// Locality in [0,1] is the fraction of edges pointing within the
	// host neighborhood.
	Locality float64
	// CopyProb in [0,1) is the probability a vertex copies part of an
	// earlier same-host vertex's adjacency list (webgraph similarity).
	CopyProb float64
	// Seed drives the generator.
	Seed int64
}

// Validate checks generator parameters.
func (c GraphConfig) Validate() error {
	if c.NumVertices < 2 || c.MeanDegree < 1 || c.NumHosts < 1 {
		return fmt.Errorf("datasets: invalid graph config %+v", c)
	}
	if c.Locality < 0 || c.Locality > 1 || c.CopyProb < 0 || c.CopyProb >= 1 {
		return fmt.Errorf("datasets: invalid locality/copy in %+v", c)
	}
	return nil
}

// UKLike mirrors Table I's UK webgraph row (11.1M vertices, mean
// degree ≈ 26) at the given scale.
func UKLike(scale float64) GraphConfig {
	n := int(11081977 * scale)
	if n < 100 {
		n = 100
	}
	return GraphConfig{
		NumVertices: n, MeanDegree: 26, NumHosts: 40,
		Locality: 0.85, CopyProb: 0.5, Seed: 287005814,
	}
}

// ArabicLike mirrors Table I's Arabic row (16.0M vertices, mean degree
// ≈ 40): denser and slightly less local.
func ArabicLike(scale float64) GraphConfig {
	n := int(15957985 * scale)
	if n < 100 {
		n = 100
	}
	return GraphConfig{
		NumVertices: n, MeanDegree: 40, NumHosts: 48,
		Locality: 0.8, CopyProb: 0.45, Seed: 633195804,
	}
}

// GenerateGraph builds the webgraph and returns it plus each vertex's
// host (latent stratum).
func GenerateGraph(cfg GraphConfig) (*pivots.Graph, []int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.NumVertices
	hostOf := make([]int, n)
	hostStart := make([]int, cfg.NumHosts+1)
	// Zipf-skewed host sizes over contiguous ID ranges.
	hw := zipfWeights(cfg.NumHosts, 0.7)
	acc := 0
	for h := 0; h < cfg.NumHosts; h++ {
		hostStart[h] = acc
		size := int(hw[h] * float64(n))
		if size < 1 {
			size = 1
		}
		acc += size
		if acc > n {
			acc = n
		}
	}
	hostStart[cfg.NumHosts] = n
	for h := 0; h < cfg.NumHosts; h++ {
		end := hostStart[h+1]
		if h == cfg.NumHosts-1 {
			end = n
		}
		for v := hostStart[h]; v < end && v < n; v++ {
			hostOf[v] = h
		}
	}
	adj := make([][]uint32, n)
	for v := 0; v < n; v++ {
		h := hostOf[v]
		lo, hi := hostStart[h], hostStart[h+1]
		if hi <= lo {
			hi = lo + 1
		}
		deg := 1 + rng.Intn(2*cfg.MeanDegree-1)
		set := make(map[uint32]struct{}, deg)
		// Copy a prefix of an earlier same-host vertex's list.
		if v > lo && rng.Float64() < cfg.CopyProb {
			src := lo + rng.Intn(v-lo)
			for _, u := range adj[src] {
				if len(set) >= deg/2 {
					break
				}
				if int(u) != v {
					set[u] = struct{}{}
				}
			}
		}
		for len(set) < deg {
			var u int
			if rng.Float64() < cfg.Locality {
				// Near-window link within the host (web locality).
				span := hi - lo
				width := span/8 + 1
				u = v - width/2 + rng.Intn(width+1)
				if u < lo {
					u = lo + rng.Intn(span)
				}
				if u >= hi {
					u = lo + rng.Intn(span)
				}
			} else {
				u = rng.Intn(n)
			}
			if u != v && u >= 0 && u < n {
				set[uint32(u)] = struct{}{}
			}
		}
		list := make([]uint32, 0, len(set))
		for u := range set {
			list = append(list, u)
		}
		sort.Slice(list, func(a, b int) bool { return list[a] < list[b] })
		adj[v] = list
	}
	g := &pivots.Graph{Adj: adj}
	if err := g.Validate(); err != nil {
		return nil, nil, fmt.Errorf("datasets: generated invalid graph: %w", err)
	}
	return g, hostOf, nil
}

// ---------------------------------------------------------------------------
// Text
// ---------------------------------------------------------------------------

// TextConfig parameterizes the topic-mixture corpus generator.
type TextConfig struct {
	// NumDocs is the document count.
	NumDocs int
	// VocabSize is the total vocabulary.
	VocabSize int
	// NumTopics is the number of latent strata.
	NumTopics int
	// MeanDocTerms is the expected distinct terms per document.
	MeanDocTerms int
	// TopicPurity in [0,1] is the fraction of a document's terms drawn
	// from its own topic band (the rest are corpus-wide).
	TopicPurity float64
	// TopicSkew is the Zipf exponent of topic sizes.
	TopicSkew float64
	// Seed drives the generator.
	Seed int64
}

// Validate checks generator parameters.
func (c TextConfig) Validate() error {
	if c.NumDocs < 1 || c.VocabSize < c.NumTopics || c.NumTopics < 1 || c.MeanDocTerms < 1 {
		return fmt.Errorf("datasets: invalid text config %+v", c)
	}
	if c.TopicPurity < 0 || c.TopicPurity > 1 {
		return fmt.Errorf("datasets: topic purity %v", c.TopicPurity)
	}
	return nil
}

// RCV1Like mirrors Table I's RCV1 row (804,414 docs, 47,236-term
// vocabulary) at the given scale.
func RCV1Like(scale float64) TextConfig {
	n := int(804414 * scale)
	if n < 20 {
		n = 20
	}
	vocab := int(47236 * math.Sqrt(scale))
	if vocab < 500 {
		vocab = 500
	}
	return TextConfig{
		NumDocs: n, VocabSize: vocab, NumTopics: 10,
		MeanDocTerms: 60, TopicPurity: 0.75, TopicSkew: 0.9,
		Seed: 804414,
	}
}

// GenerateText builds the corpus documents plus each document's topic.
func GenerateText(cfg TextConfig) ([]pivots.Doc, []int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	topicW := cumulative(zipfWeights(cfg.NumTopics, cfg.TopicSkew))
	band := cfg.VocabSize / cfg.NumTopics
	// Zipf within a band: popular topical words dominate, mirroring
	// natural term frequencies.
	bandW := cumulative(zipfWeights(band, 1.05))
	docs := make([]pivots.Doc, cfg.NumDocs)
	truth := make([]int, cfg.NumDocs)
	for i := range docs {
		topic := sampleIndex(rng, topicW)
		truth[i] = topic
		nTerms := 1 + rng.Intn(2*cfg.MeanDocTerms-1)
		set := make(map[uint32]struct{}, nTerms)
		for len(set) < nTerms {
			var term int
			if rng.Float64() < cfg.TopicPurity {
				term = topic*band + sampleIndex(rng, bandW)
			} else {
				term = rng.Intn(cfg.VocabSize)
			}
			set[uint32(term)] = struct{}{}
		}
		terms := make([]uint32, 0, len(set))
		for t := range set {
			terms = append(terms, t)
		}
		sort.Slice(terms, func(a, b int) bool { return terms[a] < terms[b] })
		docs[i] = pivots.Doc{Terms: terms}
	}
	return docs, truth, nil
}

// ---------------------------------------------------------------------------
// Table I summary
// ---------------------------------------------------------------------------

// Stats describes a generated dataset in Table I's terms.
type Stats struct {
	Name     string
	Kind     pivots.Kind
	Records  int
	Units    int // nodes (trees), edges (graphs), distinct terms (text)
	VocabOrN int // vocab size (text), vertices (graph), 0 (trees)
}

// TreeStats summarizes a tree corpus.
func TreeStats(name string, trees []pivots.Tree) Stats {
	nodes := 0
	for i := range trees {
		nodes += len(trees[i].Parent)
	}
	return Stats{Name: name, Kind: pivots.TreeData, Records: len(trees), Units: nodes}
}

// GraphStats summarizes a webgraph.
func GraphStats(name string, g *pivots.Graph) Stats {
	return Stats{Name: name, Kind: pivots.GraphData, Records: g.NumVertices(),
		Units: g.NumEdges(), VocabOrN: g.NumVertices()}
}

// TextStats summarizes a text corpus.
func TextStats(name string, docs []pivots.Doc, vocab int) Stats {
	terms := 0
	for i := range docs {
		terms += len(docs[i].Terms)
	}
	return Stats{Name: name, Kind: pivots.TextData, Records: len(docs), Units: terms, VocabOrN: vocab}
}
