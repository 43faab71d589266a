package pivots

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pareto/internal/sketch"
)

func TestTreeValidate(t *testing.T) {
	good := Tree{Parent: []int32{-1, 0, 0, 1}, Label: []uint32{1, 2, 3, 4}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid tree rejected: %v", err)
	}
	bad := []Tree{
		{}, // empty
		{Parent: []int32{-1, 0}, Label: []uint32{1}},     // label mismatch
		{Parent: []int32{0, 0}, Label: []uint32{1, 2}},   // node 0 not root
		{Parent: []int32{-1, 1}, Label: []uint32{1, 2}},  // self/forward parent
		{Parent: []int32{-1, -1}, Label: []uint32{1, 2}}, // second root
	}
	for i, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("bad tree %d accepted", i)
		}
	}
}

func TestTreePivotsLCA(t *testing.T) {
	// Root a with children b, c: pivots must include the LCA triple
	// (a, b, c) and the edges (a,b), (a,c).
	tr := Tree{Parent: []int32{-1, 0, 0}, Label: []uint32{10, 20, 30}}
	got := tr.Pivots()
	want := map[sketch.Item]bool{
		sketch.Hash2(10, 20):                   true,
		sketch.Hash2(10, 30):                   true,
		sketch.Hash2(sketch.Hash2(10, 20), 30): true,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d pivots, want %d", len(got), len(want))
	}
	for _, it := range got {
		if !want[it] {
			t.Errorf("unexpected pivot %d", it)
		}
	}
}

func TestTreePivotsChain(t *testing.T) {
	// A chain has no branching, so only edge pivots appear.
	tr := Tree{Parent: []int32{-1, 0, 1}, Label: []uint32{1, 2, 3}}
	got := tr.Pivots()
	if len(got) != 2 {
		t.Fatalf("chain pivots = %d, want 2 edges", len(got))
	}
}

func TestTreePivotsSingleNode(t *testing.T) {
	tr := Tree{Parent: []int32{-1}, Label: []uint32{7}}
	if got := tr.Pivots(); len(got) != 1 {
		t.Errorf("single-node pivots = %d, want 1", len(got))
	}
	// Two single-node trees with different labels must differ.
	tr2 := Tree{Parent: []int32{-1}, Label: []uint32{8}}
	if tr.Pivots()[0] == tr2.Pivots()[0] {
		t.Error("single-node pivot must depend on label")
	}
}

// referencePivots is the straightforward formulation of Tree.Pivots:
// children lists, then a set.
func referencePivots(t *Tree) map[sketch.Item]bool {
	ch := make([][]int32, len(t.Parent))
	for v := 1; v < len(t.Parent); v++ {
		ch[t.Parent[v]] = append(ch[t.Parent[v]], int32(v))
	}
	set := map[sketch.Item]bool{}
	for a, kids := range ch {
		la := uint64(t.Label[a])
		for i, c := range kids {
			set[sketch.Hash2(la, uint64(t.Label[c]))] = true
			if i+1 < len(kids) {
				set[sketch.Hash2(sketch.Hash2(la, uint64(t.Label[c])), uint64(t.Label[kids[i+1]]))] = true
			}
		}
	}
	if len(set) == 0 {
		set[sketch.Hash2(uint64(t.Label[0]), ^uint64(0))] = true
	}
	return set
}

// TestTreePivotsOrderedAndEqualToReference: two calls on one tree
// agree slice for slice (they did not while the set was a Go map), the
// items ascend without duplicates, and the set is the reference's.
func TestTreePivotsOrderedAndEqualToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	trees := []Tree{{Parent: []int32{-1}, Label: []uint32{7}}}
	for n := 2; n <= 40; n += 19 {
		tr := Tree{Parent: make([]int32, n), Label: make([]uint32, n)}
		tr.Parent[0] = -1
		for v := range tr.Label {
			if v > 0 {
				tr.Parent[v] = int32(rng.Intn(v))
			}
			tr.Label[v] = uint32(rng.Intn(5)) // few labels: pivots repeat
		}
		trees = append(trees, tr)
	}
	for i := range trees {
		tr := &trees[i]
		got := tr.Pivots()
		if again := tr.Pivots(); !slices.Equal(got, again) {
			t.Fatalf("%d-node tree: two calls disagree:\n%v\n%v", len(tr.Parent), got, again)
		}
		for k := 1; k < len(got); k++ {
			if got[k-1] >= got[k] {
				t.Fatalf("%d-node tree: items not strictly ascending at %d", len(tr.Parent), k)
			}
		}
		want := referencePivots(tr)
		if len(got) != len(want) {
			t.Fatalf("%d-node tree: %d pivots, reference has %d", len(tr.Parent), len(got), len(want))
		}
		for _, it := range got {
			if !want[it] {
				t.Fatalf("%d-node tree: pivot %d not in the reference set", len(tr.Parent), it)
			}
		}
	}
}

// TestNewTreeCorpusAllocations: the constructor only validates, so it
// allocates the corpus and nothing per tree; pivot sets are extracted
// when the corpus is sketched.
func TestNewTreeCorpusAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	trees := make([]Tree, 500)
	for i := range trees {
		n := 1 + rng.Intn(30)
		tr := Tree{Parent: make([]int32, n), Label: make([]uint32, n)}
		tr.Parent[0] = -1
		for v := 1; v < n; v++ {
			tr.Parent[v] = int32(rng.Intn(v))
			tr.Label[v] = uint32(rng.Intn(50))
		}
		trees[i] = tr
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := NewTreeCorpusParallel(trees, 1); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 16.0; allocs > limit {
		t.Errorf("NewTreeCorpusParallel allocates %v objects for %d trees, want ≤ %v", allocs, len(trees), limit)
	}
}

func TestTreePivotsContentSensitive(t *testing.T) {
	a := Tree{Parent: []int32{-1, 0, 0, 1}, Label: []uint32{1, 2, 3, 4}}
	b := Tree{Parent: []int32{-1, 0, 0, 1}, Label: []uint32{1, 2, 3, 5}}
	ja := sketch.ExactJaccard(a.Pivots(), a.Pivots())
	jb := sketch.ExactJaccard(a.Pivots(), b.Pivots())
	if ja != 1 {
		t.Error("self Jaccard must be 1")
	}
	if jb >= 1 {
		t.Error("different labels must change the pivot set")
	}
}

func TestTreeCorpus(t *testing.T) {
	trees := []Tree{
		{Parent: []int32{-1, 0, 0}, Label: []uint32{1, 2, 3}},
		{Parent: []int32{-1, 0}, Label: []uint32{4, 5}},
	}
	c, err := NewTreeCorpus(trees)
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind() != TreeData {
		t.Error("wrong kind")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
	if c.Weight(0) != 3 || c.Weight(1) != 2 {
		t.Errorf("weights = %d,%d", c.Weight(0), c.Weight(1))
	}
	if len(c.AppendItems(nil, 0)) == 0 {
		t.Error("empty item set")
	}
	if _, err := NewTreeCorpus([]Tree{{}}); err == nil {
		t.Error("invalid tree must be rejected")
	}
}

func TestTreeRecordRoundtrip(t *testing.T) {
	trees := []Tree{
		{Parent: []int32{-1, 0, 1, 1}, Label: []uint32{9, 8, 7, 6}},
		{Parent: []int32{-1}, Label: []uint32{42}},
	}
	c, err := NewTreeCorpus(trees)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for i := range trees {
		buf = c.AppendRecord(buf, i)
	}
	for i := range trees {
		var tr Tree
		var err error
		tr, buf, err = DecodeTreeRecord(buf)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if !reflect.DeepEqual(tr, trees[i]) {
			t.Errorf("record %d roundtrip mismatch: %+v vs %+v", i, tr, trees[i])
		}
	}
	if len(buf) != 0 {
		t.Errorf("%d trailing bytes", len(buf))
	}
}

func TestDecodeTreeRecordErrors(t *testing.T) {
	if _, _, err := DecodeTreeRecord([]byte{1, 2}); err == nil {
		t.Error("short header must fail")
	}
	if _, _, err := DecodeTreeRecord([]byte{100, 0, 0, 0, 1}); err == nil {
		t.Error("truncated payload must fail")
	}
	if _, _, err := DecodeTreeRecord([]byte{2, 0, 0, 0, 9, 9}); err == nil {
		t.Error("payload shorter than node header must fail")
	}
}

func TestGraphValidate(t *testing.T) {
	g := &Graph{Adj: [][]uint32{{1, 2}, {2}, {}}}
	if err := g.Validate(); err != nil {
		t.Errorf("valid graph rejected: %v", err)
	}
	if err := (&Graph{Adj: [][]uint32{{5}}}).Validate(); err == nil {
		t.Error("out-of-range neighbor accepted")
	}
	if err := (&Graph{Adj: [][]uint32{{1, 1}, {}}}).Validate(); err == nil {
		t.Error("duplicate neighbor accepted")
	}
	if err := (&Graph{Adj: [][]uint32{{1, 0}, {}}}).Validate(); err == nil {
		t.Error("descending neighbors accepted")
	}
}

func TestGraphCorpus(t *testing.T) {
	g := &Graph{Adj: [][]uint32{{1, 2}, {0, 2}, {}}}
	c, err := NewGraphCorpus(g)
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind() != GraphData || c.Len() != 3 {
		t.Error("kind/len wrong")
	}
	if c.Weight(0) != 3 || c.Weight(2) != 1 {
		t.Errorf("weights: %d, %d", c.Weight(0), c.Weight(2))
	}
	if g.NumEdges() != 4 || g.NumVertices() != 3 {
		t.Errorf("counts: %d edges, %d vertices", g.NumEdges(), g.NumVertices())
	}
	// Vertices 0 and 1 share neighbor 2: Jaccard = 1/3.
	j := sketch.ExactJaccard(c.AppendItems(nil, 0), c.AppendItems(nil, 1))
	if j != 1.0/3.0 {
		t.Errorf("neighbor Jaccard = %v, want 1/3", j)
	}
}

func TestGraphRecordRoundtrip(t *testing.T) {
	g := &Graph{Adj: [][]uint32{{1, 3}, {}, {0, 1, 3}, {2}}}
	c, err := NewGraphCorpus(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for i := 0; i < c.Len(); i++ {
		buf = c.AppendRecord(buf, i)
	}
	for i := 0; i < c.Len(); i++ {
		v, nbrs, rest, err := DecodeGraphRecord(buf)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if int(v) != i {
			t.Errorf("vertex ID %d, want %d", v, i)
		}
		if len(nbrs) != len(g.Adj[i]) {
			t.Errorf("vertex %d: %d neighbors, want %d", i, len(nbrs), len(g.Adj[i]))
		}
		for k := range nbrs {
			if nbrs[k] != g.Adj[i][k] {
				t.Errorf("vertex %d neighbor %d mismatch", i, k)
			}
		}
		buf = rest
	}
}

func TestTextCorpus(t *testing.T) {
	docs := []Doc{{Terms: []uint32{0, 5, 9}}, {Terms: []uint32{5}}}
	c, err := NewTextCorpus(docs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind() != TextData || c.Len() != 2 || c.Weight(0) != 3 {
		t.Error("basic accessors wrong")
	}
	if _, err := NewTextCorpus(docs, 0); err == nil {
		t.Error("zero vocab accepted")
	}
	if _, err := NewTextCorpus([]Doc{{Terms: []uint32{11}}}, 10); err == nil {
		t.Error("out-of-vocab term accepted")
	}
	if _, err := NewTextCorpus([]Doc{{Terms: []uint32{3, 3}}}, 10); err == nil {
		t.Error("non-increasing terms accepted")
	}
}

func TestTextRecordRoundtrip(t *testing.T) {
	docs := []Doc{{Terms: []uint32{1, 2, 3}}, {Terms: nil}}
	c, err := NewTextCorpus(docs, 10)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	buf = c.AppendRecord(buf, 0)
	buf = c.AppendRecord(buf, 1)
	d0, rest, err := DecodeTextRecord(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d0.Terms, []uint32{1, 2, 3}) {
		t.Errorf("doc0 = %v", d0.Terms)
	}
	d1, rest, err := DecodeTextRecord(rest)
	if err != nil {
		t.Fatal(err)
	}
	if len(d1.Terms) != 0 || len(rest) != 0 {
		t.Errorf("doc1 = %v, rest %d bytes", d1.Terms, len(rest))
	}
}

func TestKindString(t *testing.T) {
	if TreeData.String() != "tree" || GraphData.String() != "graph" || TextData.String() != "text" {
		t.Error("Kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind must still print")
	}
}

func TestDecodeTreeRecordsStream(t *testing.T) {
	trees := []Tree{
		{Parent: []int32{-1, 0}, Label: []uint32{1, 2}},
		{Parent: []int32{-1}, Label: []uint32{3}},
	}
	c, err := NewTreeCorpus(trees)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for i := range trees {
		buf = c.AppendRecord(buf, i)
	}
	got, err := DecodeTreeRecords(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !reflect.DeepEqual(got[0], trees[0]) {
		t.Errorf("decoded %v", got)
	}
	if _, err := DecodeTreeRecords([]byte{9, 9}); err == nil {
		t.Error("corrupt stream accepted")
	}
	if got, err := DecodeTreeRecords(nil); err != nil || len(got) != 0 {
		t.Error("empty stream must decode to nothing")
	}
}

func TestDecodeGraphRecordsStream(t *testing.T) {
	g := &Graph{Adj: [][]uint32{{1, 2}, {}, {0}}}
	c, err := NewGraphCorpus(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for i := 0; i < c.Len(); i++ {
		buf = c.AppendRecord(buf, i)
	}
	got, err := DecodeGraphRecords(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != 3 || got.NumEdges() != 3 {
		t.Errorf("decoded %d vertices %d edges", got.NumVertices(), got.NumEdges())
	}
	empty, err := DecodeGraphRecords(nil)
	if err != nil || empty.NumVertices() != 0 {
		t.Error("empty stream must decode to empty graph")
	}
	if _, err := DecodeGraphRecords([]byte{1, 0, 0, 0, 5}); err == nil {
		t.Error("corrupt stream accepted")
	}
	// One 12-byte record naming vertex 2^32−1 would size a 2^32-row
	// table.
	if _, err := DecodeGraphRecords([]byte{8, 0, 0, 0, 255, 255, 255, 255, 0, 0, 0, 0}); err == nil {
		t.Error("vertex past the record count accepted")
	}
}

func TestDecodeTextRecordsStream(t *testing.T) {
	docs := []Doc{{Terms: []uint32{0, 7}}, {Terms: []uint32{3}}}
	c, err := NewTextCorpus(docs, 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for i := range docs {
		buf = c.AppendRecord(buf, i)
	}
	got, vocab, err := DecodeTextRecords(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || vocab != 8 {
		t.Errorf("decoded %d docs, vocab %d", len(got), vocab)
	}
	if _, _, err := DecodeTextRecords([]byte{1, 2}); err == nil {
		t.Error("corrupt stream accepted")
	}
}

func TestSplitRecords(t *testing.T) {
	// Two records back to back; each keeps its length header.
	buf := []byte{2, 0, 0, 0, 10, 11, 1, 0, 0, 0, 99}
	recs, err := SplitRecords(buf)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{{2, 0, 0, 0, 10, 11}, {1, 0, 0, 0, 99}}
	if !reflect.DeepEqual(recs, want) {
		t.Errorf("split = %v, want %v", recs, want)
	}
	if _, err := SplitRecords([]byte{2, 0, 0, 0, 10, 11, 1, 2}); err == nil {
		t.Error("short header accepted")
	}
	if _, err := SplitRecords([]byte{2, 0, 0, 0, 10, 11, 5, 0, 0, 0, 99}); err == nil {
		t.Error("length claim past the end of the stream accepted")
	}
	if recs, err := SplitRecords(nil); err != nil || len(recs) != 0 {
		t.Errorf("empty buffer split to %v, %v; want nothing", recs, err)
	}
}
