package treemine

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"pareto/internal/pivots"
)

// mkTree builds a tree from parallel parent/label slices.
func mkTree(parents []int32, labels []uint32) pivots.Tree {
	return pivots.Tree{Parent: parents, Label: labels}
}

// ---------------------------------------------------------------------------
// Independent containment checker (backtracking embedding test) used
// to validate the miner. Completely separate code path from extend().
// ---------------------------------------------------------------------------

// patTree is a pattern converted into explicit tree form.
type patTree struct {
	label    []uint32
	children [][]int
}

func toPatTree(p Pattern) patTree {
	pt := patTree{label: make([]uint32, len(p)), children: make([][]int, len(p))}
	var stack []int // current path, index by depth
	for i, n := range p {
		pt.label[i] = n.Label
		if i > 0 {
			parent := stack[n.Depth-1]
			pt.children[parent] = append(pt.children[parent], i)
		}
		if int(n.Depth) < len(stack) {
			stack = stack[:n.Depth]
		}
		stack = append(stack, i)
	}
	return pt
}

// embeds reports whether pattern node pi can map to tree node v with an
// order-preserving injective mapping of the pattern subtree.
func embeds(t *pivots.Tree, ch [][]int32, pt *patTree, pi int, v int32) bool {
	if pt.label[pi] != t.Label[v] {
		return false
	}
	pk := pt.children[pi]
	if len(pk) == 0 {
		return true
	}
	tk := ch[v]
	// Match pattern children in order to tree children in order.
	var rec func(pcIdx, tcIdx int) bool
	rec = func(pcIdx, tcIdx int) bool {
		if pcIdx == len(pk) {
			return true
		}
		for j := tcIdx; j < len(tk); j++ {
			if embeds(t, ch, pt, pk[pcIdx], tk[j]) && rec(pcIdx+1, j+1) {
				return true
			}
		}
		return false
	}
	return rec(0, 0)
}

// childLists returns the children of every node in sibling order.
func childLists(t *pivots.Tree) [][]int32 {
	ch := make([][]int32, len(t.Parent))
	for v := 1; v < len(t.Parent); v++ {
		ch[t.Parent[v]] = append(ch[t.Parent[v]], int32(v))
	}
	return ch
}

// bruteSupport counts trees containing the pattern via backtracking.
func bruteSupport(trees []pivots.Tree, p Pattern) int {
	pt := toPatTree(p)
	sup := 0
	for ti := range trees {
		ch := childLists(&trees[ti])
		found := false
		for v := 0; v < len(trees[ti].Parent) && !found; v++ {
			found = embeds(&trees[ti], ch, &pt, 0, int32(v))
		}
		if found {
			sup++
		}
	}
	return sup
}

// ---------------------------------------------------------------------------

func TestMineTinyExample(t *testing.T) {
	// Two trees sharing the shape a(b, c); a third tree a(c) only.
	trees := []pivots.Tree{
		mkTree([]int32{-1, 0, 0}, []uint32{1, 2, 3}), // a(b, c)
		mkTree([]int32{-1, 0, 0}, []uint32{1, 2, 3}), // a(b, c)
		mkTree([]int32{-1, 0}, []uint32{1, 3}),       // a(c)
	}
	f, err := NewForest(trees)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Mine(f, Config{MinSupport: 2, MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	wantSup := map[string]int{
		Pattern{{0, 1}}.Key():                 3,
		Pattern{{0, 2}}.Key():                 2,
		Pattern{{0, 3}}.Key():                 3,
		Pattern{{0, 1}, {1, 2}}.Key():         2,
		Pattern{{0, 1}, {1, 3}}.Key():         3,
		Pattern{{0, 1}, {1, 2}, {1, 3}}.Key(): 2,
	}
	got := map[string]int{}
	for _, fp := range res.Frequent {
		got[fp.Pattern.Key()] = fp.Support
	}
	if len(got) != len(wantSup) {
		t.Fatalf("%d patterns, want %d: %v", len(got), len(wantSup), res.Frequent)
	}
	for k, sup := range wantSup {
		if got[k] != sup {
			t.Errorf("pattern key %x support %d, want %d", k, got[k], sup)
		}
	}
}

func TestSiblingOrderMatters(t *testing.T) {
	// Tree a(b, c): pattern a(c, b) — wrong sibling order — must NOT
	// be found (induced *ordered* subtree semantics).
	trees := []pivots.Tree{mkTree([]int32{-1, 0, 0}, []uint32{1, 2, 3})}
	f, err := NewForest(trees)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Mine(f, Config{MinSupport: 1, MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	bad := Pattern{{0, 1}, {1, 3}, {1, 2}}.Key()
	for _, fp := range res.Frequent {
		if fp.Pattern.Key() == bad {
			t.Error("order-violating pattern reported")
		}
	}
	// And the correct order must be found.
	good := Pattern{{0, 1}, {1, 2}, {1, 3}}.Key()
	found := false
	for _, fp := range res.Frequent {
		if fp.Pattern.Key() == good {
			found = true
		}
	}
	if !found {
		t.Error("correct-order pattern missing")
	}
}

func TestDeepPattern(t *testing.T) {
	// Chain a-b-c must be mined from chain trees.
	trees := []pivots.Tree{
		mkTree([]int32{-1, 0, 1}, []uint32{1, 2, 3}),
		mkTree([]int32{-1, 0, 1, 2}, []uint32{1, 2, 3, 4}),
	}
	f, err := NewForest(trees)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Mine(f, Config{MinSupport: 2, MaxNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	chain := Pattern{{0, 1}, {1, 2}, {2, 3}}.Key()
	found := false
	for _, fp := range res.Frequent {
		if fp.Pattern.Key() == chain && fp.Support == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("chain pattern missing: %v", res.Frequent)
	}
}

// randomForest builds small random labeled trees.
func randomForest(rng *rand.Rand, nTrees, maxNodes int, labels uint32) []pivots.Tree {
	trees := make([]pivots.Tree, nTrees)
	for i := range trees {
		n := 1 + rng.Intn(maxNodes)
		parent := make([]int32, n)
		label := make([]uint32, n)
		parent[0] = -1
		label[0] = uint32(rng.Intn(int(labels)))
		for v := 1; v < n; v++ {
			parent[v] = int32(rng.Intn(v))
			label[v] = uint32(rng.Intn(int(labels)))
		}
		trees[i] = mkTree(parent, label)
	}
	return trees
}

func TestMineAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 15; trial++ {
		trees := randomForest(rng, 8+rng.Intn(8), 7, 4)
		f, err := NewForest(trees)
		if err != nil {
			t.Fatal(err)
		}
		minSup := 2 + rng.Intn(2)
		res, err := Mine(f, Config{MinSupport: minSup, MaxNodes: 4})
		if err != nil {
			t.Fatal(err)
		}
		// 1) Every reported support must match the brute-force count.
		for _, fp := range res.Frequent {
			if got := bruteSupport(trees, fp.Pattern); got != fp.Support {
				t.Fatalf("trial %d: pattern %v support %d, brute force %d",
					trial, fp.Pattern, fp.Support, got)
			}
		}
		// 2) No frequent pattern may be missed: check every 2-node
		// pattern over the label alphabet.
		for a := uint32(0); a < 4; a++ {
			for b := uint32(0); b < 4; b++ {
				p := Pattern{{0, a}, {1, b}}
				sup := bruteSupport(trees, p)
				reported := false
				for _, fp := range res.Frequent {
					if fp.Pattern.Key() == p.Key() {
						reported = true
						if fp.Support != sup {
							t.Fatalf("trial %d: %v support %d vs %d", trial, p, fp.Support, sup)
						}
					}
				}
				if sup >= minSup && !reported {
					t.Fatalf("trial %d: frequent pattern %v (sup %d) missed", trial, p, sup)
				}
				if sup < minSup && reported {
					t.Fatalf("trial %d: infrequent pattern %v reported", trial, p)
				}
			}
		}
	}
}

// refExtend is the map-based rightmost extension of d781e05, kept apart
// from the miner so the reference shares none of its dedup or cost
// accounting: every extension of the pattern, deduplicated through a set
// per key, one cost unit per occurrence, per child and per later sibling.
func refExtend(trees []pivots.Tree, ch [][][]int32, dlast int32, occ []occurrence) (map[extKey][]occurrence, float64) {
	exts := make(map[extKey][]occurrence)
	seen := make(map[extKey]map[occurrence]bool)
	var cost float64
	add := func(k extKey, o occurrence) {
		if seen[k] == nil {
			seen[k] = make(map[occurrence]bool)
		}
		if !seen[k][o] {
			seen[k][o] = true
			exts[k] = append(exts[k], o)
		}
	}
	for _, o := range occ {
		cost++
		for _, w := range ch[o.tree][o.node] {
			cost++
			add(extKey{dlast + 1, trees[o.tree].Label[w]}, occurrence{o.tree, w})
		}
		c := o.node
		for p := dlast - 1; p >= 0; p-- {
			a := trees[o.tree].Parent[c]
			for _, w := range ch[o.tree][a] {
				if w > c {
					cost++
					add(extKey{p + 1, trees[o.tree].Label[w]}, occurrence{o.tree, w})
				}
			}
			c = a
		}
	}
	return exts, cost
}

// CountSupport counts the support of one pattern in the forest by
// replaying its rightmost-extension construction from scratch (every
// pattern's preorder prefix sequence is exactly its unique build path),
// with a full extension per prefix, and returns the support plus the
// deterministic matching cost. It is the per-candidate loop CountPass
// replaced, kept as the reference CountPass is compared against.
func CountSupport(f *Forest, pat Pattern) (int, float64, error) {
	if err := pat.Validate(); err != nil {
		return 0, 0, err
	}
	ch := make([][][]int32, len(f.Trees))
	var occ []occurrence
	var cost float64
	for ti := range f.Trees {
		ch[ti] = childLists(&f.Trees[ti])
		for v, l := range f.Trees[ti].Label {
			cost++
			if l == pat[0].Label {
				occ = append(occ, occurrence{int32(ti), int32(v)})
			}
		}
	}
	for i := 1; i < len(pat); i++ {
		if len(occ) == 0 {
			return 0, cost, nil
		}
		exts, c := refExtend(f.Trees, ch, pat[i-1].Depth, occ)
		cost += c
		occ = exts[extKey{pat[i].Depth, pat[i].Label}]
	}
	distinct := make(map[int32]bool)
	for _, o := range occ {
		distinct[o.tree] = true
	}
	return len(distinct), cost, nil
}

func TestCountSupportMatchesMine(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trees := randomForest(rng, 20, 8, 5)
	f, err := NewForest(trees)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Mine(f, Config{MinSupport: 2, MaxNodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range res.Frequent {
		sup, cost, err := CountSupport(f, fp.Pattern)
		if err != nil {
			t.Fatal(err)
		}
		if sup != fp.Support {
			t.Errorf("CountSupport(%v) = %d, Mine says %d", fp.Pattern, sup, fp.Support)
		}
		if cost <= 0 {
			t.Error("zero matching cost")
		}
	}
	// A pattern that cannot occur.
	sup, _, err := CountSupport(f, Pattern{{0, 999}, {1, 999}})
	if err != nil || sup != 0 {
		t.Errorf("impossible pattern support %d, %v", sup, err)
	}
}

// splitThree deals the trees round-robin into three partitions.
func splitThree(trees []pivots.Tree) [][]pivots.Tree {
	parts := make([][]pivots.Tree, 3)
	for i, tr := range trees {
		parts[i%3] = append(parts[i%3], tr)
	}
	return parts
}

// TestCountPassMatchesReference holds the one-walk pass to the
// per-candidate replay it replaced: equal supports one by one and a
// total cost == the sum of the replays' costs, on forests whose small
// label alphabets make patterns collide.
func TestCountPassMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 24; trial++ {
		labels := uint32(2 + rng.Intn(4))
		trees := randomForest(rng, 30+rng.Intn(40), 4+rng.Intn(12), labels)
		parts := splitThree(trees)
		cfg := Config{MaxNodes: 3 + rng.Intn(3)}
		forests := make([]*Forest, len(parts))
		locals := make([]*PartitionResult, len(parts))
		for i, p := range parts {
			f, err := NewForest(p)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := MineLocal(f, 0.3, cfg)
			if err != nil {
				t.Fatal(err)
			}
			forests[i], locals[i] = f, pr
		}
		cands := GlobalCandidates(locals)
		cands = append(cands,
			Pattern{{0, 999}, {1, 0}},                               // absent from every partition
			Pattern{{0, 0}, {1, 998}, {2, 0}, {1, 0}},               // no prefix of it is listed
			Pattern{{0, 1}, {1, 0}, {2, 1}, {2, 0}, {1, 1}, {2, 1}}, // longer than anything mined
			Pattern{{0, 997}},                                       // single node, absent
		)
		if trial%2 == 0 {
			// Drop the single labels: their extensions' prefixes are
			// then interior trie nodes no candidate names.
			kept := cands[:0:0]
			for _, c := range cands {
				if len(c) > 1 {
					kept = append(kept, c)
				}
			}
			cands = append(kept, Pattern{{0, 0}})
		}
		for pi, f := range forests {
			counts, cost, err := CountPass(f, cands)
			if err != nil {
				t.Fatal(err)
			}
			var want float64
			for ci, c := range cands {
				sup, w, err := CountSupport(f, c)
				if err != nil {
					t.Fatal(err)
				}
				want += w
				if counts[ci] != sup {
					t.Fatalf("trial %d partition %d: CountPass(%v) = %d, replay says %d", trial, pi, c, counts[ci], sup)
				}
			}
			if cost != want {
				t.Fatalf("trial %d partition %d: cost %v, replays sum to %v", trial, pi, cost, want)
			}
		}
	}
}

func TestCountPassValidation(t *testing.T) {
	f, err := NewForest([]pivots.Tree{mkTree([]int32{-1, 0}, []uint32{1, 2})})
	if err != nil {
		t.Fatal(err)
	}
	dup := []Pattern{{{0, 1}}, {{0, 1}, {1, 2}}, {{0, 1}}}
	if _, _, err := CountPass(f, dup); err == nil {
		t.Error("duplicate candidate accepted")
	}
	if _, _, err := CountPass(f, []Pattern{{{0, 1}, {2, 2}}}); err == nil {
		t.Error("invalid candidate accepted")
	}
	counts, cost, err := CountPass(f, nil)
	if err != nil || len(counts) != 0 || cost != 0 {
		t.Errorf("no candidates: %v, %v, %v", counts, cost, err)
	}
}

// TestMinerScratchBoundedByForestHeight: a candidate far longer than
// any tree is deep (another partition's, or a large Config.MaxNodes)
// does not scale the dedup stamps, and is still counted.
func TestMinerScratchBoundedByForestHeight(t *testing.T) {
	trees := []pivots.Tree{
		mkTree([]int32{-1, 0, 1, 0}, []uint32{1, 2, 3, 2}), // height 2
		mkTree([]int32{-1, 0}, []uint32{1, 2}),
	}
	f, err := NewForest(trees)
	if err != nil {
		t.Fatal(err)
	}
	if m := newMiner(f, 1000); m.levels != 2 || len(m.stamp) != 2*f.nodes() {
		t.Errorf("levels %d, %d stamps for a forest of height 2 and %d nodes", m.levels, len(m.stamp), f.nodes())
	}
	chain := make(Pattern, 40)
	for i := range chain {
		chain[i] = PatternNode{Depth: int32(i), Label: uint32(1 + i%3)}
	}
	cands := []Pattern{chain, {{0, 1}, {1, 2}, {2, 3}, {1, 2}}}
	counts, cost, err := CountPass(f, cands)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for ci, c := range cands {
		sup, w, err := CountSupport(f, c)
		if err != nil {
			t.Fatal(err)
		}
		want += w
		if counts[ci] != sup {
			t.Errorf("CountPass(%v) = %d, replay says %d", c, counts[ci], sup)
		}
	}
	if counts[1] != 1 || cost != want {
		t.Errorf("counts %v, cost %v; replays sum to %v", counts, cost, want)
	}
}

// TestMineCostsRecorded pins Mine, MineLocal and the count pass to the
// patterns, search-space sizes and abstract costs the map-based miner
// of d781e05 produced on the same seeded forests: the simulated
// makespans and joules are functions of these numbers.
func TestMineCostsRecorded(t *testing.T) {
	cases := []struct {
		seed                     int64
		trees, nodes             int
		labels                   uint32
		minSup, maxNodes         int
		frequent, explored       int
		cost                     float64
		candidates, distFrequent int
		localCosts, countCosts   []float64
	}{
		{2, 200, 20, 8, 20, 4, 63, 882, 10580, 10, 8, []float64{1994, 1973, 2324}, []float64{7198, 7160, 8100}},
		{7, 20, 8, 5, 2, 4, 31, 101, 446, 154, 7, []float64{197, 173, 197}, []float64{7493, 6804, 7698}},
		{101, 60, 12, 3, 6, 5, 47, 263, 2784, 19, 12, []float64{793, 573, 710}, []float64{4837, 3669, 4561}},
		{55, 60, 6, 4, 15, 3, 5, 25, 635, 9, 5, []float64{191, 228, 240}, []float64{748, 845, 913}},
		{9, 40, 15, 2, 10, 0, 21, 95, 2082, 44, 21, []float64{961, 646, 687}, []float64{12308, 9792, 9253}},
	}
	for _, c := range cases {
		trees := randomForest(rand.New(rand.NewSource(c.seed)), c.trees, c.nodes, c.labels)
		f, err := NewForest(trees)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Mine(f, Config{MinSupport: c.minSup, MaxNodes: c.maxNodes})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Frequent) != c.frequent || res.Explored != c.explored || res.Cost != c.cost {
			t.Errorf("seed %d: Mine found %d, explored %d, cost %v; recorded %d, %d, %v",
				c.seed, len(res.Frequent), res.Explored, res.Cost, c.frequent, c.explored, c.cost)
		}
		d, err := MineDistributed(splitThree(trees), 0.25, Config{MaxNodes: c.maxNodes})
		if err != nil {
			t.Fatal(err)
		}
		if d.Candidates != c.candidates || len(d.Frequent) != c.distFrequent ||
			!slices.Equal(d.LocalCosts, c.localCosts) || !slices.Equal(d.CountCosts, c.countCosts) {
			t.Errorf("seed %d: MineDistributed %d candidates, %d frequent, costs %v / %v; recorded %d, %d, %v / %v",
				c.seed, d.Candidates, len(d.Frequent), d.LocalCosts, d.CountCosts,
				c.candidates, c.distFrequent, c.localCosts, c.countCosts)
		}
	}
}

// TestOccurrenceListsInTreeOrder drives the miner the way Mine does,
// with no support threshold, and checks on every list it builds what
// distinctTrees relies on: non-decreasing tree order, no repeated
// occurrence, and a run count equal to the distinct-tree count.
func TestOccurrenceListsInTreeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 10; trial++ {
		trees := randomForest(rng, 12, 9, 3)
		f, err := NewForest(trees)
		if err != nil {
			t.Fatal(err)
		}
		const maxNodes = 4
		m := newMiner(f, maxNodes)
		check := func(occ []occurrence) {
			t.Helper()
			seen := map[occurrence]bool{}
			distinct := map[int32]bool{}
			for i, o := range occ {
				if i > 0 && o.tree < occ[i-1].tree {
					t.Fatalf("trial %d: list leaves tree order at %d: %v", trial, i, occ)
				}
				if seen[o] {
					t.Fatalf("trial %d: occurrence %v repeated in %v", trial, o, occ)
				}
				seen[o] = true
				distinct[o.tree] = true
			}
			if got := distinctTrees(occ); got != len(distinct) {
				t.Fatalf("trial %d: distinctTrees = %d, %d distinct trees in %v", trial, got, len(distinct), occ)
			}
		}
		var dfs func(size int, dlast int32, occ []occurrence)
		dfs = func(size int, dlast int32, occ []occurrence) {
			check(occ)
			if size == maxNodes {
				return
			}
			m.reset(true)
			m.extend(dlast, occ)
			keys := slices.Clone(m.keys)
			for s, list := range m.lists() {
				dfs(size+1, keys[s].depth, list)
			}
		}
		m.reset(true)
		m.scanLabels()
		for _, list := range m.lists() {
			dfs(1, 0, list)
		}
	}
}

func TestDistinctTreesRejectsUnorderedList(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-order occurrence list counted")
		}
	}()
	distinctTrees([]occurrence{{1, 0}, {0, 0}})
}

// TestSharedForestConcurrentMining mines and count-passes one Forest
// from several goroutines at once (run under -race): the Forest is
// read-only and every call owns its scratch, so all results are equal.
func TestSharedForestConcurrentMining(t *testing.T) {
	trees := randomForest(rand.New(rand.NewSource(12)), 80, 14, 3)
	f, err := NewForest(trees)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MinSupport: 8, MaxNodes: 4}
	want, err := Mine(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cands := make([]Pattern, len(want.Frequent))
	for i, fp := range want.Frequent {
		cands[i] = fp.Pattern
	}
	wantCounts, wantCost, err := CountPass(f, cands)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				res, err := Mine(f, cfg)
				if err != nil || !reflect.DeepEqual(res, want) {
					t.Errorf("concurrent Mine differs (err %v)", err)
				}
				counts, cost, err := CountPass(f, cands)
				if err != nil || cost != wantCost || !slices.Equal(counts, wantCounts) {
					t.Errorf("concurrent CountPass differs (err %v)", err)
				}
			}
		}()
	}
	wg.Wait()
	for i, fp := range want.Frequent {
		if wantCounts[i] != fp.Support {
			t.Errorf("CountPass(%v) = %d, Mine says %d", fp.Pattern, wantCounts[i], fp.Support)
		}
	}
}

// TestNewForestAllocations: the child index is flat, so building it
// costs the same number of objects for 200 trees as for 2,000.
func TestNewForestAllocations(t *testing.T) {
	trees := randomForest(rand.New(rand.NewSource(3)), 2000, 20, 8)
	allocs := func(ts []pivots.Tree) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := NewForest(ts); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(trees[:200]), allocs(trees)
	if small != large {
		t.Errorf("NewForest allocates %v objects for 200 trees, %v for 2000", small, large)
	}
}

func TestPatternValidate(t *testing.T) {
	if err := (Pattern{}).Validate(); err == nil {
		t.Error("empty pattern accepted")
	}
	if err := (Pattern{{1, 5}}).Validate(); err == nil {
		t.Error("nonzero root depth accepted")
	}
	if err := (Pattern{{0, 1}, {2, 2}}).Validate(); err == nil {
		t.Error("depth jump accepted")
	}
	if err := (Pattern{{0, 1}, {1, 2}, {1, 3}, {2, 1}}).Validate(); err != nil {
		t.Errorf("valid pattern rejected: %v", err)
	}
}

func TestPatternKeyRoundtrip(t *testing.T) {
	p := Pattern{{0, 7}, {1, 9}, {2, 11}, {1, 7}}
	k := p.Key()
	if len(k) != 8*len(p) {
		t.Fatalf("key of %d nodes is %d bytes", len(p), len(k))
	}
	for i := range p {
		depth := int32(binary.LittleEndian.Uint32([]byte(k[8*i:])))
		label := binary.LittleEndian.Uint32([]byte(k[8*i+4:]))
		if depth != p[i].Depth || label != p[i].Label {
			t.Errorf("node %d decodes to (%d, %d), want %v", i, depth, label, p[i])
		}
	}
}

func TestMineValidation(t *testing.T) {
	f, err := NewForest([]pivots.Tree{mkTree([]int32{-1}, []uint32{1})})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Mine(f, Config{MinSupport: 0}); err == nil {
		t.Error("zero support accepted")
	}
	if _, err := NewForest([]pivots.Tree{{}}); err == nil {
		t.Error("invalid tree accepted")
	}
}

func TestMaxPatternsCap(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	trees := randomForest(rng, 30, 10, 2) // few labels → dense patterns
	f, err := NewForest(trees)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Mine(f, Config{MinSupport: 1, MaxNodes: 6, MaxPatterns: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Explored > 50+64 { // cap plus the final level's expansions
		t.Errorf("explored %d far beyond cap", res.Explored)
	}
}

func TestMineDistributedMatchesCentralized(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	trees := randomForest(rng, 60, 6, 4)
	const frac = 0.25
	f, err := NewForest(trees)
	if err != nil {
		t.Fatal(err)
	}
	// Centralized at the same ceiling threshold.
	central, err := Mine(f, Config{MinSupport: 15, MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][]pivots.Tree, 3)
	for i, tr := range trees {
		parts[i%3] = append(parts[i%3], tr)
	}
	dist, err := MineDistributed(parts, frac, Config{MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	cm := map[string]int{}
	for _, fp := range central.Frequent {
		cm[fp.Pattern.Key()] = fp.Support
	}
	if len(dist.Frequent) != len(central.Frequent) {
		t.Fatalf("distributed %d, centralized %d", len(dist.Frequent), len(central.Frequent))
	}
	for _, fp := range dist.Frequent {
		if cm[fp.Pattern.Key()] != fp.Support {
			t.Errorf("pattern %v support mismatch", fp.Pattern)
		}
	}
	if dist.FalsePositives != dist.Candidates-len(dist.Frequent) {
		t.Error("false-positive accounting inconsistent")
	}
}

func TestMineDistributedValidation(t *testing.T) {
	if _, err := MineDistributed(nil, 0.5, Config{}); err == nil {
		t.Error("no partitions accepted")
	}
	if _, err := MineDistributed([][]pivots.Tree{{}}, 0.5, Config{}); err == nil {
		t.Error("empty partitions accepted")
	}
	f, err := NewForest([]pivots.Tree{mkTree([]int32{-1}, []uint32{1})})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MineLocal(f, 0, Config{}); err == nil {
		t.Error("zero fraction accepted")
	}
}

func BenchmarkMine200Trees(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	trees := randomForest(rng, 200, 20, 8)
	f, err := NewForest(trees)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mine(f, Config{MinSupport: 20, MaxNodes: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCountPass counts the patterns BenchmarkMine200Trees mines
// against the same forest.
func BenchmarkCountPass(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	trees := randomForest(rng, 200, 20, 8)
	f, err := NewForest(trees)
	if err != nil {
		b.Fatal(err)
	}
	res, err := Mine(f, Config{MinSupport: 20, MaxNodes: 4})
	if err != nil {
		b.Fatal(err)
	}
	cands := make([]Pattern, len(res.Frequent))
	for i, fp := range res.Frequent {
		cands[i] = fp.Pattern
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := CountPass(f, cands); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPatternString(t *testing.T) {
	cases := []struct {
		p    Pattern
		want string
	}{
		{Pattern{}, "()"},
		{Pattern{{0, 1}}, "1"},
		{Pattern{{0, 1}, {1, 2}}, "1(2)"},
		{Pattern{{0, 1}, {1, 2}, {1, 3}}, "1(2, 3)"},
		{Pattern{{0, 1}, {1, 2}, {2, 4}, {1, 3}}, "1(2(4), 3)"},
	}
	for i, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("case %d: %q, want %q", i, got, c.want)
		}
	}
}

// relabel copies trees with every label l replaced by to(l).
func relabel(trees []pivots.Tree, to func(uint32) uint32) []pivots.Tree {
	out := make([]pivots.Tree, len(trees))
	for i, tr := range trees {
		labels := make([]uint32, len(tr.Label))
		for v, l := range tr.Label {
			labels[v] = to(l)
		}
		out[i] = mkTree(tr.Parent, labels)
	}
	return out
}

// relabelPattern copies p with every label l replaced by to(l).
func relabelPattern(p Pattern, to func(uint32) uint32) Pattern {
	out := make(Pattern, len(p))
	for i, n := range p {
		out[i] = PatternNode{Depth: n.Depth, Label: to(n.Label)}
	}
	return out
}

// TestArbitraryLabelsMineAndCountAlike: the miner numbers labels
// through the forest's dictionary, sized by how many distinct labels
// there are, never by their values. An injective relabelling — onto the
// top of the uint32 range, or spread sparsely across it — changes
// nothing mined or counted: the same patterns under the same map, with
// the same supports, search-space size and costs, a dictionary as small
// as the alphabet, and NewForest's allocation count still independent
// of the node count. Candidates whose labels no tree carries count 0.
func TestArbitraryLabelsMineAndCountAlike(t *testing.T) {
	const alphabet = 6
	maps := map[string]func(uint32) uint32{
		"near-max": func(l uint32) uint32 { return math.MaxUint32 - l },
		"sparse":   func(l uint32) uint32 { return l*0x9E3779B1 + 12345 },
	}
	trees := randomForest(rand.New(rand.NewSource(32)), 120, 14, alphabet)
	f, err := NewForest(trees)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MinSupport: 10, MaxNodes: 4}
	want, err := Mine(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cands := []Pattern{
		{{0, alphabet}},                     // single node, absent
		{{0, 0}, {1, alphabet + 1}},         // absent label under a present one
		{{0, 1}, {1, 2}, {1, alphabet + 2}}, // absent label after a present sibling
	}
	for _, fp := range want.Frequent {
		cands = append(cands, fp.Pattern)
	}
	wantCounts, wantCost, err := CountPass(f, cands)
	if err != nil {
		t.Fatal(err)
	}
	for ci := 0; ci < 3; ci++ {
		if wantCounts[ci] != 0 {
			t.Fatalf("candidate %v with an absent label counted %d", cands[ci], wantCounts[ci])
		}
	}
	for name, to := range maps {
		mapped := relabel(trees, to)
		g, err := NewForest(mapped)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.labels.Values) != alphabet {
			t.Errorf("%s: dictionary of %d labels, want %d", name, len(g.labels.Values), alphabet)
		}
		got, err := Mine(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Explored != want.Explored || got.Cost != want.Cost || len(got.Frequent) != len(want.Frequent) {
			t.Fatalf("%s: explored %d, cost %v, %d frequent; identity labels give %d, %v, %d", name,
				got.Explored, got.Cost, len(got.Frequent), want.Explored, want.Cost, len(want.Frequent))
		}
		sup := make(map[string]int, len(got.Frequent))
		for _, fp := range got.Frequent {
			sup[fp.Pattern.Key()] = fp.Support
		}
		for _, fp := range want.Frequent {
			if s, ok := sup[relabelPattern(fp.Pattern, to).Key()]; !ok || s != fp.Support {
				t.Errorf("%s: %v mined with support %d (found %v), want %d", name, fp.Pattern, s, ok, fp.Support)
			}
		}
		mappedCands := make([]Pattern, len(cands))
		for i, c := range cands {
			mappedCands[i] = relabelPattern(c, to)
		}
		counts, cost, err := CountPass(g, mappedCands)
		if err != nil {
			t.Fatal(err)
		}
		if cost != wantCost || !slices.Equal(counts, wantCounts) {
			t.Errorf("%s: CountPass gives cost %v and %v, identity labels %v and %v", name, cost, counts, wantCost, wantCounts)
		}
		allocs := func(ts []pivots.Tree) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := NewForest(ts); err != nil {
					t.Fatal(err)
				}
			})
		}
		if small, large := allocs(mapped[:12]), allocs(mapped); small != large {
			t.Errorf("%s: NewForest allocates %v objects for 12 trees, %v for 120", name, small, large)
		}
	}
}

// TestLabelDictGrows: a forest of several hundred sparse labels grows
// the dictionary past its first index (the dict package's test of the
// same name checks the index itself), numbers the labels in ascending
// order, and mines and counts like the per-candidate replay.
func TestLabelDictGrows(t *testing.T) {
	trees := relabel(randomForest(rand.New(rand.NewSource(9)), 400, 12, 300),
		func(l uint32) uint32 { return l*0x9E3779B1 + 7 })
	f, err := NewForest(trees)
	if err != nil {
		t.Fatal(err)
	}
	d := &f.labels
	if len(d.Values) <= 32 {
		t.Errorf("only %d labels", len(d.Values))
	}
	if !slices.IsSorted(d.Values) {
		t.Error("dictionary labels not ascending")
	}
	for c, l := range d.Values {
		if got := d.Code(l); got != int32(c) {
			t.Fatalf("label %d has code %d, want %d", l, got, c)
		}
	}
	res, err := Mine(f, Config{MinSupport: 3, MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frequent) < 50 {
		t.Fatalf("only %d frequent patterns", len(res.Frequent))
	}
	cands := make([]Pattern, len(res.Frequent))
	for i, fp := range res.Frequent {
		cands[i] = fp.Pattern
	}
	counts, cost, err := CountPass(f, cands)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for i, fp := range res.Frequent {
		sup, c, err := CountSupport(f, fp.Pattern)
		if err != nil {
			t.Fatal(err)
		}
		want += c
		if sup != fp.Support || counts[i] != sup {
			t.Errorf("%v: Mine %d, CountPass %d, replay %d", fp.Pattern, fp.Support, counts[i], sup)
		}
	}
	if cost != want {
		t.Errorf("CountPass cost %v, replays sum to %v", cost, want)
	}
}
