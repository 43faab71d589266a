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
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"pareto/internal/pivots"
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

// Forest is a preprocessed tree collection: children lists in sibling
// (document) order, per-node depths, and parent pointers.
type Forest struct {
	Trees    []pivots.Tree
	children [][][]int32
	depth    [][]int32
}

// NewForest validates and preprocesses the trees.
func NewForest(trees []pivots.Tree) (*Forest, error) {
	f := &Forest{
		Trees:    trees,
		children: make([][][]int32, len(trees)),
		depth:    make([][]int32, len(trees)),
	}
	for ti := range trees {
		t := &trees[ti]
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("treemine: tree %d: %w", ti, err)
		}
		f.children[ti] = t.Children()
		d := make([]int32, len(t.Parent))
		for v := 1; v < len(t.Parent); v++ {
			d[v] = d[t.Parent[v]] + 1
		}
		f.depth[ti] = d
	}
	return f, nil
}

// Len returns the tree count.
func (f *Forest) Len() int { return len(f.Trees) }

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
	// MinSupport is the absolute minimum number of trees a pattern
	// must occur in. Required ≥ 1.
	MinSupport int
	// MaxNodes caps the pattern size. 0 means DefaultMaxNodes.
	MaxNodes int
	// MaxPatterns aborts runaway enumerations. 0 means no cap.
	MaxPatterns int
}

// DefaultMaxNodes bounds pattern size when Config.MaxNodes is 0.
const DefaultMaxNodes = 5

// Mine enumerates all frequent induced ordered subtrees of the forest.
func Mine(f *Forest, cfg Config) (*Result, error) {
	if cfg.MinSupport < 1 {
		return nil, fmt.Errorf("treemine: min support %d", cfg.MinSupport)
	}
	maxNodes := cfg.MaxNodes
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}
	res := &Result{}
	// Level 1: single labels.
	byLabel := make(map[uint32][]occurrence)
	for ti := range f.Trees {
		for v, l := range f.Trees[ti].Label {
			byLabel[l] = append(byLabel[l], occurrence{int32(ti), int32(v)})
			res.Cost++
		}
	}
	type state struct {
		pat Pattern
		occ []occurrence
	}
	var stack []state
	labels := make([]uint32, 0, len(byLabel))
	for l := range byLabel {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	for _, l := range labels {
		occ := byLabel[l]
		res.Explored++
		if sup := distinctTrees(occ); sup >= cfg.MinSupport {
			pat := Pattern{{Depth: 0, Label: l}}
			res.Frequent = append(res.Frequent, FreqPattern{Pattern: pat, Support: sup})
			stack = append(stack, state{pat, occ})
		}
	}
	// DFS rightmost extension.
	for len(stack) > 0 {
		if cfg.MaxPatterns > 0 && res.Explored >= cfg.MaxPatterns {
			break
		}
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if len(s.pat) >= maxNodes {
			continue
		}
		exts, cost := f.extend(s.pat, s.occ)
		res.Cost += cost
		// Deterministic order over extensions.
		keys := make([]extKey, 0, len(exts))
		for k := range exts {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].depth != keys[j].depth {
				return keys[i].depth > keys[j].depth
			}
			return keys[i].label < keys[j].label
		})
		for _, k := range keys {
			occ := exts[k]
			res.Explored++
			sup := distinctTrees(occ)
			if sup < cfg.MinSupport {
				continue
			}
			np := make(Pattern, len(s.pat)+1)
			copy(np, s.pat)
			np[len(s.pat)] = PatternNode{Depth: k.depth, Label: k.label}
			res.Frequent = append(res.Frequent, FreqPattern{Pattern: np, Support: sup})
			stack = append(stack, state{np, occ})
		}
	}
	sortFreq(res.Frequent)
	return res, nil
}

type extKey struct {
	depth int32
	label uint32
}

// extend computes every rightmost extension of the pattern from its
// occurrence list: for each occurrence with last matched node v (at
// pattern depth dlast), the pattern can grow a new node at depth p+1
// for any rightmost-path depth p ≤ dlast; candidates are v's children
// (p = dlast) or the later siblings of v's ancestor chain (p < dlast).
func (f *Forest) extend(pat Pattern, occ []occurrence) (map[extKey][]occurrence, float64) {
	dlast := pat[len(pat)-1].Depth
	exts := make(map[extKey][]occurrence)
	seen := make(map[extKey]map[occurrence]struct{})
	var cost float64
	add := func(k extKey, o occurrence) {
		m, ok := seen[k]
		if !ok {
			m = make(map[occurrence]struct{})
			seen[k] = m
		}
		if _, dup := m[o]; dup {
			return
		}
		m[o] = struct{}{}
		exts[k] = append(exts[k], o)
	}
	for _, o := range occ {
		cost++
		// p == dlast: attach under the last matched node.
		for _, w := range f.children[o.tree][o.node] {
			cost++
			add(extKey{dlast + 1, f.Trees[o.tree].Label[w]}, occurrence{o.tree, w})
		}
		// p < dlast: attach under an ancestor, after the path child.
		c := o.node
		for p := dlast - 1; p >= 0; p-- {
			a := f.Trees[o.tree].Parent[c]
			sibs := f.children[o.tree][a]
			// Children are in increasing node-ID (document) order;
			// candidates are the siblings after c.
			idx := sort.Search(len(sibs), func(i int) bool { return sibs[i] > c })
			for _, w := range sibs[idx:] {
				cost++
				add(extKey{p + 1, f.Trees[o.tree].Label[w]}, occurrence{o.tree, w})
			}
			c = a
		}
	}
	return exts, cost
}

// distinctTrees counts how many distinct trees appear in the list.
func distinctTrees(occ []occurrence) int {
	seen := make(map[int32]struct{}, len(occ))
	for _, o := range occ {
		seen[o.tree] = struct{}{}
	}
	return len(seen)
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

// CountSupport counts the support of one pattern in the forest by
// replaying its rightmost-extension construction (every pattern's
// preorder prefix sequence is exactly its unique build path), and
// returns the support plus the deterministic matching cost.
func CountSupport(f *Forest, pat Pattern) (int, float64, error) {
	if err := pat.Validate(); err != nil {
		return 0, 0, err
	}
	var occ []occurrence
	var cost float64
	for ti := range f.Trees {
		for v, l := range f.Trees[ti].Label {
			cost++
			if l == pat[0].Label {
				occ = append(occ, occurrence{int32(ti), int32(v)})
			}
		}
	}
	cur := pat[:1]
	for i := 1; i < len(pat); i++ {
		if len(occ) == 0 {
			return 0, cost, nil
		}
		exts, c := f.extend(cur, occ)
		cost += c
		occ = exts[extKey{pat[i].Depth, pat[i].Label}]
		cur = pat[:i+1]
	}
	return distinctTrees(occ), cost, nil
}

// PartitionResult is one partition's local mining output.
type PartitionResult struct {
	Local []FreqPattern
	Cost  float64
}

// MineLocal mines one partition at the scaled support threshold.
func MineLocal(trees []pivots.Tree, supportFrac float64, cfg Config) (*PartitionResult, error) {
	if supportFrac <= 0 || supportFrac > 1 {
		return nil, fmt.Errorf("treemine: support fraction %v", supportFrac)
	}
	f, err := NewForest(trees)
	if err != nil {
		return nil, err
	}
	cfg.MinSupport = int(supportFrac * float64(len(trees)))
	if cfg.MinSupport < 1 {
		cfg.MinSupport = 1
	}
	res, err := Mine(f, cfg)
	if err != nil {
		return nil, err
	}
	return &PartitionResult{Local: res.Frequent, Cost: res.Cost}, nil
}

// DistributedResult is the outcome of the partitioned algorithm.
type DistributedResult struct {
	// Frequent holds the globally frequent patterns.
	Frequent []FreqPattern
	// Candidates is the global candidate count (union of local
	// frequents) — the skew-sensitive quality metric.
	Candidates int
	// FalsePositives counts candidates pruned by the global pass.
	FalsePositives int
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
	seen := make(map[string]bool)
	var cands []Pattern
	for i, p := range partitions {
		if len(p) == 0 {
			continue
		}
		pr, err := MineLocal(p, supportFrac, cfg)
		if err != nil {
			return nil, fmt.Errorf("treemine: partition %d: %w", i, err)
		}
		res.LocalCosts[i] = pr.Cost
		for _, fp := range pr.Local {
			k := fp.Pattern.Key()
			if !seen[k] {
				seen[k] = true
				cands = append(cands, fp.Pattern)
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if len(cands[i]) != len(cands[j]) {
			return len(cands[i]) < len(cands[j])
		}
		return cands[i].Key() < cands[j].Key()
	})
	res.Candidates = len(cands)
	globalCounts := make([]int, len(cands))
	for i, p := range partitions {
		if len(p) == 0 {
			continue
		}
		f, err := NewForest(p)
		if err != nil {
			return nil, err
		}
		for j, pat := range cands {
			sup, cost, err := CountSupport(f, pat)
			if err != nil {
				return nil, err
			}
			res.CountCosts[i] += cost
			globalCounts[j] += sup
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
		} else {
			res.FalsePositives++
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
