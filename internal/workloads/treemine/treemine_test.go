package treemine

import (
	"encoding/binary"
	"math/rand"
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

// bruteSupport counts trees containing the pattern via backtracking.
func bruteSupport(trees []pivots.Tree, p Pattern) int {
	pt := toPatTree(p)
	sup := 0
	for ti := range trees {
		ch := trees[ti].Children()
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
	if _, err := MineLocal([]pivots.Tree{mkTree([]int32{-1}, []uint32{1})}, 0, Config{}); err == nil {
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
