// Package treemine implements frequent ordered-subtree mining in the
// style of FREQT (Asai et al., SDM 2002): labeled, rooted, ordered
// patterns are enumerated by rightmost extension, with occurrences
// tracked as rightmost-occurrence lists. It stands in for the
// hashing-based frequent tree mining workload of paper §V-C1, with the
// same complexity driver — the number of candidate patterns explored,
// which partition skew inflates.
//
// A pattern is an induced ordered subtree: pattern nodes map to
// distinct tree nodes preserving parent-child edges, sibling order and
// labels. Support is the number of trees containing at least one
// embedding. The partition-based distributed scheme (Savasere-style,
// as in the text workload) mines each partition locally and prunes
// false positives with a global counting pass.
package treemine

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"pareto/internal/pivots"
	"pareto/internal/workloads/dict"
)

// PatternNode is one node of a pattern in preorder: its depth and label.
type PatternNode struct {
	Depth int32
	Label uint32
}

// Pattern is an ordered labeled tree in preorder (depth, label) form.
// A valid pattern has Depth[0] = 0 and each subsequent depth at most
// one deeper than its predecessor.
type Pattern []PatternNode

// Key encodes the pattern canonically for map keys.
func (p Pattern) Key() string {
	b := make([]byte, 8*len(p))
	for i, n := range p {
		binary.LittleEndian.PutUint32(b[8*i:], uint32(n.Depth))
		binary.LittleEndian.PutUint32(b[8*i+4:], n.Label)
	}
	return string(b)
}

// Validate checks preorder depth consistency.
func (p Pattern) Validate() error {
	if len(p) == 0 {
		return errors.New("treemine: empty pattern")
	}
	if p[0].Depth != 0 {
		return fmt.Errorf("treemine: root depth %d", p[0].Depth)
	}
	for i := 1; i < len(p); i++ {
		if p[i].Depth < 1 || p[i].Depth > p[i-1].Depth+1 {
			return fmt.Errorf("treemine: invalid depth %d after %d", p[i].Depth, p[i-1].Depth)
		}
	}
	return nil
}

// Forest is a preprocessed tree collection: one child index for the
// whole partition in compressed-sparse-row form. Tree t's nodes own the
// global ids off[t] … off[t+1]−1, and the children of global node g are
// child[start[g]:start[g+1]] as tree-local ids, ascending — sibling
// (document) order. A Forest is immutable after NewForest, so any
// number of goroutines may mine or count against one.
type Forest struct {
	Trees []pivots.Tree
	off   []int32
	start []int32
	child []int32
	// height is the depth of the deepest node of any tree (a root has
	// depth 0): no matched pattern node sits deeper.
	height int32
	// largest is the node count of the largest tree: the miner's dedup
	// stamps are indexed by tree-local node.
	largest int32
	// labels numbers the labels the trees carry 0 … d−1 in ascending
	// order; the miner reaches a label's code through its index.
	labels dict.Dict
	// labelNodes[c] and labelTrees[c] count the nodes and the trees that
	// carry the label of code c: the sizes and supports of the
	// single-node patterns' occurrence lists.
	labelNodes, labelTrees []int32
}

// NewForest validates and preprocesses the trees. It makes a fixed
// number of allocations whatever the node count (the label index and
// counts grow with the number of distinct labels only).
func NewForest(trees []pivots.Tree) (*Forest, error) {
	total, largest := 0, 0
	for ti := range trees {
		if err := trees[ti].Validate(); err != nil {
			return nil, fmt.Errorf("treemine: tree %d: %w", ti, err)
		}
		total += len(trees[ti].Parent)
		largest = max(largest, len(trees[ti].Parent))
	}
	if total > math.MaxInt32-2 {
		return nil, fmt.Errorf("treemine: %d nodes exceed the int32 child index", total)
	}
	f := &Forest{
		Trees:   trees,
		off:     make([]int32, len(trees)+1),
		child:   make([]int32, total-len(trees)),
		largest: int32(largest),
	}
	// Counting sort by parent. Node g's child count goes to next[g+2],
	// so after the prefix sum next[g+1] is the slot of g's next child;
	// filling advances it to the end of g's range — the start of node
	// g+1's, which makes next[:total+1] the start array.
	next := make([]int32, total+2)
	depth := make([]int32, largest)
	g := int32(0)
	for ti := range trees {
		f.off[ti] = g
		for v, p := range trees[ti].Parent[1:] {
			next[g+p+2]++
			depth[v+1] = depth[p] + 1
			f.height = max(f.height, depth[v+1])
		}
		g += int32(len(trees[ti].Parent))
	}
	f.off[len(trees)] = g
	for i := 2; i < len(next); i++ {
		next[i] += next[i-1]
	}
	for ti := range trees {
		base := f.off[ti] + 1
		for v, p := range trees[ti].Parent[1:] {
			f.child[next[base+p]] = int32(v + 1)
			next[base+p]++
		}
	}
	f.start = next[:total+1]
	f.labels.Build(len(trees), func(i int) []uint32 { return trees[i].Label })
	d := len(f.labels.Values)
	f.labelNodes, f.labelTrees = make([]int32, d), make([]int32, d)
	// seen[c] is 1 + the last tree counted under code c.
	seen := make([]int32, d)
	for ti := range trees {
		for _, l := range trees[ti].Label {
			c := f.labels.Code(l)
			f.labelNodes[c]++
			if seen[c] != int32(ti)+1 {
				seen[c] = int32(ti) + 1
				f.labelTrees[c]++
			}
		}
	}
	return f, nil
}

// Len returns the tree count.
func (f *Forest) Len() int { return len(f.Trees) }

// nodes returns the node count of the whole forest.
func (f *Forest) nodes() int { return int(f.off[len(f.Trees)]) }

// children returns the children of node v of tree ti in sibling order.
func (f *Forest) children(ti, v int32) []int32 {
	g := f.off[ti] + v
	return f.child[f.start[g]:f.start[g+1]]
}

// occurrence is a rightmost occurrence: the tree and the tree node
// matched to the pattern's last preorder node. Because rightmost
// extension only consults the rightmost path — fully determined by
// this node and the pattern depths — occurrences with equal (tree,
// node) are interchangeable and stored once.
type occurrence struct {
	tree int32
	node int32
}

// FreqPattern is one frequent pattern with its support.
type FreqPattern struct {
	Pattern Pattern
	Support int
}

// Result summarizes a mining run.
type Result struct {
	// Frequent holds the frequent patterns in canonical order.
	Frequent []FreqPattern
	// Explored is the number of candidate patterns whose support was
	// evaluated (the search-space size).
	Explored int
	// Cost is the abstract deterministic work metric.
	Cost float64
}

// Config bounds a mining run.
type Config struct {
	// MaxNodes caps the pattern size. 0 means DefaultMaxNodes.
	MaxNodes int
}

// DefaultMaxNodes bounds pattern size when Config.MaxNodes is 0.
const DefaultMaxNodes = 5

// Mine enumerates all induced ordered subtrees of the forest that occur
// in at least minSupport ≥ 1 trees.
func Mine(f *Forest, minSupport int, cfg Config) (*Result, error) {
	if minSupport < 1 {
		return nil, fmt.Errorf("treemine: min support %d", minSupport)
	}
	maxNodes := cfg.MaxNodes
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}
	res := &Result{}
	m := newMiner(f, maxNodes)
	// floor is the support at which an extension of size nodes gets its
	// occurrence list: one of maxNodes nodes is never extended, so only
	// its support is counted.
	floor := func(size int) int32 {
		if size >= maxNodes {
			return noList
		}
		return int32(minSupport)
	}
	type state struct {
		pat Pattern
		occ []occurrence
	}
	var stack []state
	var order []int32
	// grow records the extensions of pat (nil at level 1) the miner just
	// counted: each is explored, and the frequent ones are reported and,
	// if they have a list, pushed in the deterministic order depth desc,
	// label asc.
	grow := func(pat Pattern, lists [][]occurrence) {
		order = order[:0]
		for s := range m.keys {
			order = append(order, int32(s))
		}
		slices.SortFunc(order, func(a, b int32) int {
			ka, kb := m.keys[a], m.keys[b]
			if ka.depth != kb.depth {
				return cmp.Compare(kb.depth, ka.depth)
			}
			return cmp.Compare(ka.label, kb.label)
		})
		for _, s := range order {
			res.Explored++
			sup := int(m.stats[s].sup)
			if sup < minSupport {
				continue
			}
			np := make(Pattern, len(pat)+1)
			copy(np, pat)
			np[len(pat)] = PatternNode{Depth: m.keys[s].depth, Label: m.keys[s].label}
			res.Frequent = append(res.Frequent, FreqPattern{Pattern: np, Support: sup})
			if len(np) < maxNodes {
				stack = append(stack, state{np, lists[s]})
			}
		}
	}
	// Level 1: single labels.
	m.reset(true, floor(1))
	lists, cost := m.scanLabels()
	res.Cost += cost
	grow(nil, lists)
	// DFS rightmost extension.
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		m.reset(true, floor(len(s.pat)+1))
		res.Cost += m.extend(s.pat[len(s.pat)-1].Depth, s.occ)
		grow(s.pat, m.lists())
	}
	sortFreq(res.Frequent)
	return res, nil
}

// extKey names one rightmost extension: the new node's pattern depth
// and label.
type extKey struct {
	depth int32
	label uint32
}

// noList is a list floor no support reaches: the slot's occurrences are
// counted, never stored.
const noList = math.MaxInt32

// slotStat is what the miner counts of one slot: its occurrences, the
// trees they lie in and the latest of those trees. The slot gets a list
// only if its support reaches floor.
type slotStat struct {
	count, sup, last, floor int32
}

// slotOcc is one emitted occurrence and the slot of its extension key.
type slotOcc struct {
	slot int32
	occ  occurrence
}

// miner is the scratch of one Mine or CountPass call: it turns an
// occurrence list into the occurrence lists of its extensions. The
// Forest may be shared between goroutines; a miner may not.
type miner struct {
	f *Forest
	// stamp[v*levels+p] == epoch marks node v of the tree being extended
	// as already emitted under an ancestor at pattern depth p. extend
	// takes a new epoch for each tree of its occurrence list, so the
	// stamps number levels × the largest tree's nodes.
	stamp  []uint32
	levels int
	epoch  uint32
	// slot[depth*labels+code] is 1 + the index in keys and stats of the
	// extension key (depth, the label of that code), 0 if the key has
	// none. With all set every key met gets a slot; otherwise only the
	// keys want registered are kept and the rest are costed and
	// dropped.
	slot   []int32
	labels int
	keys   []extKey
	stats  []slotStat
	all    bool
	// minSup is the floor of a key the miner registers itself (all).
	minSup int32
	// wanted[d] reports whether any kept key has depth d.
	wanted []bool
	// buf holds the occurrences extend kept, in generation order; it
	// grows to the longest emission.
	buf []slotOcc
}

// newMiner sizes the scratch for patterns of at most maxNodes nodes.
// slot has one row of the forest's label codes per pattern depth below
// maxNodes. extend sees dlast ≤ maxNodes−2, and on a non-empty list the last
// node is matched, so dlast ≤ f.height too; ancestor depths p < dlast
// number at most the smaller of the two, however long a candidate
// another partition sends. Nothing is sized by the forest's node count.
func newMiner(f *Forest, maxNodes int) *miner {
	levels := min(max(maxNodes-2, 0), int(f.height))
	depths := max(maxNodes, 2)
	return &miner{
		f:      f,
		stamp:  make([]uint32, int(f.largest)*levels),
		levels: levels,
		slot:   make([]int32, depths*len(f.labels.Values)),
		labels: len(f.labels.Values),
		wanted: make([]bool, depths),
	}
}

// cell returns the index in slot of key k, −1 if no node of the forest
// carries its label.
func (m *miner) cell(k extKey) int {
	c := m.f.labels.Code(k.label)
	if c < 0 {
		return -1
	}
	return int(k.depth)*m.labels + int(c)
}

// reset empties the slots ahead of a scanLabels or extend call. With
// all set every key met takes a slot, listed from support minSup.
func (m *miner) reset(all bool, minSup int32) {
	for _, k := range m.keys {
		if c := m.cell(k); c >= 0 {
			m.slot[c] = 0
		}
	}
	clear(m.wanted)
	m.keys = m.keys[:0]
	m.stats = m.stats[:0]
	m.buf = m.buf[:0]
	m.all = all
	m.minSup = minSup
}

// want registers a key to keep, listed from support floor, and returns
// its slot. A key whose label no node carries gets a slot too, and so
// support 0.
func (m *miner) want(k extKey, floor int32) int32 {
	s := int32(len(m.keys))
	if c := m.cell(k); c >= 0 {
		m.slot[c] = s + 1
	}
	m.keys = append(m.keys, k)
	m.stats = append(m.stats, slotStat{last: -1, floor: floor})
	m.wanted[k.depth] = true
	return s
}

// tally counts one more occurrence in tree under slot s. A slot's
// occurrences arrive in non-decreasing tree order (see extend); one out
// of order is a bug in this package.
func (m *miner) tally(s, tree int32) {
	st := &m.stats[s]
	st.count++
	if tree != st.last {
		if tree < st.last {
			panic("treemine: occurrence list out of tree order")
		}
		st.last = tree
		st.sup++
	}
}

// emit counts o under key k if the key has, or may take, a slot, and
// keeps it unless the slot can never be listed. k's label is a node's,
// so it has a code.
func (m *miner) emit(k extKey, o occurrence) {
	s := m.slot[m.cell(k)] - 1
	if s < 0 {
		if !m.all {
			return
		}
		s = m.want(k, m.minSup)
	}
	m.tally(s, o.tree)
	if m.stats[s].floor != noList {
		m.buf = append(m.buf, slotOcc{s, o})
	}
}

// listed reports whether slot s gets a list.
func (m *miner) listed(s int32) bool { return m.stats[s].sup >= m.stats[s].floor }

// carve returns one empty list per listed slot, with room for its
// count, all carved from a single backing array, and nil for the rest.
func (m *miner) carve() [][]occurrence {
	total := 0
	for s, st := range m.stats {
		if m.listed(int32(s)) {
			total += int(st.count)
		}
	}
	backing := make([]occurrence, total)
	out := make([][]occurrence, len(m.stats))
	pos := 0
	for s, st := range m.stats {
		if m.listed(int32(s)) {
			out[s] = backing[pos : pos : pos+int(st.count)]
			pos += int(st.count)
		}
	}
	return out
}

// lists splits the occurrences extend kept into one list per listed
// slot, each in generation order.
func (m *miner) lists() [][]occurrence {
	out := m.carve()
	for _, e := range m.buf {
		if m.listed(e.slot) {
			out[e.slot] = append(out[e.slot], e.occ)
		}
	}
	return out
}

// scanLabels returns the occurrence lists of the single-node patterns,
// one per slot, trees in order, and the scan's cost, one unit per node.
// The forest has counted each label's nodes and trees, so with all set
// every label takes a slot up front, the listed slots are carved to
// size, and one walk over the labels fills them.
func (m *miner) scanLabels() ([][]occurrence, float64) {
	f := m.f
	if m.all {
		for _, l := range f.labels.Values {
			m.want(extKey{0, l}, m.minSup)
		}
	}
	for s, k := range m.keys {
		if c := f.labels.Code(k.label); c >= 0 {
			m.stats[s].count, m.stats[s].sup = f.labelNodes[c], f.labelTrees[c]
		}
	}
	out := m.carve()
	for ti := range f.Trees {
		for v, l := range f.Trees[ti].Label {
			if s := m.slot[m.cell(extKey{0, l})] - 1; s >= 0 && m.listed(s) {
				out[s] = append(out[s], occurrence{int32(ti), int32(v)})
			}
		}
	}
	return out, float64(f.nodes())
}

// nextEpoch retires every stamp. On wrap-around the stamps are cleared,
// so no stale mark can equal the new epoch.
func (m *miner) nextEpoch() {
	m.epoch++
	if m.epoch == 0 {
		clear(m.stamp)
		m.epoch = 1
	}
}

// extend emits every rightmost extension of a pattern whose last node
// has depth dlast from its occurrence list: for each occurrence with
// last matched node v, the pattern can grow a new node at depth p+1 for
// any rightmost-path depth p ≤ dlast; candidates are v's children
// (p = dlast) or the later siblings of v's ancestor chain (p < dlast).
//
// The cost is one unit per occurrence, per child considered and per
// later sibling considered, whether or not its key is kept. A child has
// one parent and occurrences are distinct, so an extension under v
// cannot repeat; one reached through an ancestor can (two occurrences
// may share it) and is kept once per (p, tree, node).
//
// occ is in non-decreasing tree order and everything emitted for an
// occurrence lies in its tree, so every list built is too, and a repeat
// can only come from the same tree: the stamps take a new epoch
// whenever the tree changes.
func (m *miner) extend(dlast int32, occ []occurrence) float64 {
	var cost float64
	f := m.f
	tree := int32(-1)
	for _, o := range occ {
		cost++
		if o.tree != tree {
			tree = o.tree
			m.nextEpoch()
		}
		t := &f.Trees[o.tree]
		// p == dlast: attach under the last matched node.
		kids := f.children(o.tree, o.node)
		cost += float64(len(kids))
		if m.all || m.wanted[dlast+1] {
			for _, w := range kids {
				m.emit(extKey{dlast + 1, t.Label[w]}, occurrence{o.tree, w})
			}
		}
		// p < dlast: attach under an ancestor, after the path child.
		c := o.node
		for p := dlast - 1; p >= 0; p-- {
			a := t.Parent[c]
			sibs := f.children(o.tree, a)
			// Children are in increasing node-ID (document) order;
			// candidates are the siblings after c.
			at, _ := slices.BinarySearch(sibs, c)
			later := sibs[at+1:]
			cost += float64(len(later))
			if m.all || m.wanted[p+1] {
				for _, w := range later {
					mark := &m.stamp[int(w)*m.levels+int(p)]
					if *mark == m.epoch {
						continue
					}
					*mark = m.epoch
					m.emit(extKey{p + 1, t.Label[w]}, occurrence{o.tree, w})
				}
			}
			c = a
		}
	}
	return cost
}

// sortFreq orders patterns by (size, key).
func sortFreq(ps []FreqPattern) {
	sort.Slice(ps, func(i, j int) bool {
		if len(ps[i].Pattern) != len(ps[j].Pattern) {
			return len(ps[i].Pattern) < len(ps[j].Pattern)
		}
		return ps[i].Pattern.Key() < ps[j].Pattern.Key()
	})
}

// trieNode is one node of CountPass's candidate prefix trie.
type trieNode struct {
	key extKey
	// cand is the candidate this prefix spells, −1 if none does.
	cand int32
	// below counts the candidates strictly below this node.
	below int32
	kids  []int32
}

// trieEdge addresses a child of a trie node by extension key.
type trieEdge struct {
	parent int32
	key    extKey
}

// CountPass counts the support of every candidate in the forest — the
// global counting pass of the partitioned scheme — and returns the
// supports, aligned with cands, plus the deterministic matching cost.
//
// A pattern's preorder prefixes are its unique rightmost-extension
// build path, so the candidates form a prefix trie (a prefix that is
// not itself a candidate is an interior node; a duplicate candidate is
// an error). The pass scans the partition's labels once and walks the
// trie depth-first; at each node it makes one pass over the node's
// occurrence list that counts the children's supports and builds only
// the lists of the children with children of their own.
//
// The cost is defined as what replaying each candidate from scratch
// costs — a label scan, then one full extension per proper prefix, an
// extension of an empty list costing nothing:
//
//	len(cands) × nodes + Σ_trie-node E(node) × (candidates strictly below node)
//
// where E(node) is the cost of fully extending the node's occurrence
// list, which the restricted pass charges too (extend costs what it
// considers, not what it keeps). Every term is an integer-valued
// float64 far below 2⁵³, so the sum is exact in any order and equal,
// bit for bit, to the per-candidate replay's.
func CountPass(f *Forest, cands []Pattern) ([]int, float64, error) {
	trie := []trieNode{{cand: -1}}
	edges := make(map[trieEdge]int32)
	maxNodes := 0
	for ci, pat := range cands {
		if err := pat.Validate(); err != nil {
			return nil, 0, err
		}
		maxNodes = max(maxNodes, len(pat))
		at := int32(0)
		for _, n := range pat {
			trie[at].below++
			e := trieEdge{at, extKey{n.Depth, n.Label}}
			next, ok := edges[e]
			if !ok {
				next = int32(len(trie))
				edges[e] = next
				trie = append(trie, trieNode{key: e.key, cand: -1})
				trie[at].kids = append(trie[at].kids, next)
			}
			at = next
		}
		if trie[at].cand >= 0 {
			return nil, 0, fmt.Errorf("treemine: candidates %d and %d are both %v", trie[at].cand, ci, pat)
		}
		trie[at].cand = int32(ci)
	}
	counts := make([]int, len(cands))
	m := newMiner(f, maxNodes)
	var cost float64
	// walk visits trie node at with its occurrence list (none at the
	// root, whose children are the single labels).
	var walk func(at int32, occ []occurrence)
	walk = func(at int32, occ []occurrence) {
		n := &trie[at]
		if len(n.kids) == 0 || (at != 0 && len(occ) == 0) {
			return
		}
		m.reset(false, 0)
		for _, kid := range n.kids {
			floor := int32(noList)
			if len(trie[kid].kids) > 0 {
				floor = 1
			}
			m.want(trie[kid].key, floor)
		}
		var lists [][]occurrence
		if at == 0 {
			var c float64
			lists, c = m.scanLabels()
			cost += c * float64(n.below)
		} else {
			cost += m.extend(n.key.depth, occ) * float64(n.below)
			lists = m.lists()
		}
		for i, kid := range n.kids {
			if c := trie[kid].cand; c >= 0 {
				counts[c] = int(m.stats[i].sup)
			}
		}
		for i, list := range lists {
			walk(n.kids[i], list)
		}
	}
	walk(0, nil)
	return counts, cost, nil
}

// PartitionResult is one partition's local mining output.
type PartitionResult struct {
	Local []FreqPattern
	Cost  float64
}

// MineLocal mines one partition's forest at the scaled support
// threshold. The count pass reads the same forest.
func MineLocal(f *Forest, supportFrac float64, cfg Config) (*PartitionResult, error) {
	if supportFrac <= 0 || supportFrac > 1 {
		return nil, fmt.Errorf("treemine: support fraction %v", supportFrac)
	}
	res, err := Mine(f, max(int(supportFrac*float64(f.Len())), 1), cfg)
	if err != nil {
		return nil, err
	}
	return &PartitionResult{Local: res.Frequent, Cost: res.Cost}, nil
}

// GlobalCandidates unions the locally frequent patterns of all
// partitions — the candidate set the global counting pass must count —
// sorted by (size, key). Nil entries (empty partitions) are skipped.
func GlobalCandidates(parts []*PartitionResult) []Pattern {
	type keyed struct {
		key string
		pat Pattern
	}
	seen := make(map[string]bool)
	var union []keyed
	for _, p := range parts {
		if p == nil {
			continue
		}
		for _, fp := range p.Local {
			k := fp.Pattern.Key()
			if !seen[k] {
				seen[k] = true
				union = append(union, keyed{k, fp.Pattern})
			}
		}
	}
	sort.Slice(union, func(i, j int) bool {
		if len(union[i].pat) != len(union[j].pat) {
			return len(union[i].pat) < len(union[j].pat)
		}
		return union[i].key < union[j].key
	})
	cands := make([]Pattern, len(union))
	for i, u := range union {
		cands[i] = u.pat
	}
	return cands
}

// DistributedResult is the outcome of the partitioned algorithm.
type DistributedResult struct {
	// Frequent holds the globally frequent patterns.
	Frequent []FreqPattern
	// Candidates is the global candidate count (union of local
	// frequents) — the skew-sensitive quality metric. Those not in
	// Frequent were pruned by the global pass.
	Candidates int
	// LocalCosts and CountCosts are the per-partition phase costs.
	LocalCosts []float64
	CountCosts []float64
}

// MineDistributed runs the two-phase partitioned algorithm: local
// FREQT per partition, union, global counting pass, prune.
func MineDistributed(partitions [][]pivots.Tree, supportFrac float64, cfg Config) (*DistributedResult, error) {
	if len(partitions) == 0 {
		return nil, errors.New("treemine: no partitions")
	}
	total := 0
	for _, p := range partitions {
		total += len(p)
	}
	if total == 0 {
		return nil, errors.New("treemine: no trees")
	}
	res := &DistributedResult{
		LocalCosts: make([]float64, len(partitions)),
		CountCosts: make([]float64, len(partitions)),
	}
	forests := make([]*Forest, len(partitions))
	locals := make([]*PartitionResult, len(partitions))
	for i, p := range partitions {
		if len(p) == 0 {
			continue
		}
		f, err := NewForest(p)
		if err != nil {
			return nil, fmt.Errorf("treemine: partition %d: %w", i, err)
		}
		pr, err := MineLocal(f, supportFrac, cfg)
		if err != nil {
			return nil, fmt.Errorf("treemine: partition %d: %w", i, err)
		}
		forests[i] = f
		locals[i] = pr
		res.LocalCosts[i] = pr.Cost
	}
	cands := GlobalCandidates(locals)
	res.Candidates = len(cands)
	globalCounts := make([]int, len(cands))
	for i, f := range forests {
		if f == nil {
			continue
		}
		counts, cost, err := CountPass(f, cands)
		if err != nil {
			return nil, err
		}
		res.CountCosts[i] = cost
		for j, c := range counts {
			globalCounts[j] += c
		}
	}
	// Ceiling for the same completeness reason as the text workload:
	// floored local thresholds over-generate, never miss.
	minSup := int(math.Ceil(supportFrac * float64(total)))
	if minSup < 1 {
		minSup = 1
	}
	for j, c := range globalCounts {
		if c >= minSup {
			res.Frequent = append(res.Frequent, FreqPattern{Pattern: cands[j], Support: c})
		}
	}
	sortFreq(res.Frequent)
	return res, nil
}

// String renders the pattern as a nested term, e.g. "1(2, 3(4))",
// where numbers are labels — handy in logs and failure messages.
func (p Pattern) String() string {
	if len(p) == 0 {
		return "()"
	}
	var sb strings.Builder
	var write func(i int) int
	write = func(i int) int {
		fmt.Fprintf(&sb, "%d", p[i].Label)
		j := i + 1
		opened := false
		for j < len(p) && p[j].Depth == p[i].Depth+1 {
			if !opened {
				sb.WriteByte('(')
				opened = true
			} else {
				sb.WriteString(", ")
			}
			j = write(j)
		}
		if opened {
			sb.WriteByte(')')
		}
		return j
	}
	write(0)
	return sb.String()
}
