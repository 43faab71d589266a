package apriori

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// tx builds a sorted transaction.
func tx(items ...uint32) Transaction {
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	return items
}

// classicDataset is the textbook market-basket example.
func classicDataset() []Transaction {
	return []Transaction{
		tx(1, 3, 4),
		tx(2, 3, 5),
		tx(1, 2, 3, 5),
		tx(2, 5),
	}
}

func findPattern(ps []Pattern, items ...uint32) *Pattern {
	for i := range ps {
		if reflect.DeepEqual(ps[i].Items, items) {
			return &ps[i]
		}
	}
	return nil
}

func TestMineClassicExample(t *testing.T) {
	// With min support 2: {1}:2 {2}:3 {3}:3 {5}:3, {1,3}:2 {2,3}:2
	// {2,5}:3 {3,5}:2, {2,3,5}:2.
	res, err := Mine(classicDataset(), Config{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		Key([]uint32{1}):       2,
		Key([]uint32{2}):       3,
		Key([]uint32{3}):       3,
		Key([]uint32{5}):       3,
		Key([]uint32{1, 3}):    2,
		Key([]uint32{2, 3}):    2,
		Key([]uint32{2, 5}):    3,
		Key([]uint32{3, 5}):    2,
		Key([]uint32{2, 3, 5}): 2,
	}
	if len(res.Frequent) != len(want) {
		t.Fatalf("%d frequent itemsets, want %d: %v", len(res.Frequent), len(want), res.Frequent)
	}
	for _, p := range res.Frequent {
		if want[Key(p.Items)] != p.Support {
			t.Errorf("pattern %v support %d, want %d", p.Items, p.Support, want[Key(p.Items)])
		}
	}
	if res.Cost <= 0 || res.Candidates <= 0 {
		t.Error("cost/candidate accounting empty")
	}
}

func TestMineMaxLen(t *testing.T) {
	res, err := Mine(classicDataset(), Config{MinSupport: 2, MaxLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Frequent {
		if len(p.Items) > 1 {
			t.Errorf("MaxLen 1 produced %v", p.Items)
		}
	}
}

func TestMineValidation(t *testing.T) {
	if _, err := Mine(nil, Config{MinSupport: 0}); err == nil {
		t.Error("zero support accepted")
	}
}

func TestMineEmptyAndSparse(t *testing.T) {
	res, err := Mine(nil, Config{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frequent) != 0 {
		t.Error("empty dataset mined patterns")
	}
	// All-distinct transactions: only singletons at support 1.
	res, err = Mine([]Transaction{tx(1), tx(2), tx(3)}, Config{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frequent) != 0 {
		t.Errorf("sparse data gave %v", res.Frequent)
	}
}

// bruteForce counts every itemset up to maxLen by enumeration.
func bruteForce(txns []Transaction, minSup, maxLen int) map[string]int {
	counts := make(map[string]int)
	var rec func(t Transaction, start int, cur []uint32)
	rec = func(t Transaction, start int, cur []uint32) {
		if len(cur) > 0 {
			counts[Key(cur)]++
		}
		if maxLen > 0 && len(cur) >= maxLen {
			return
		}
		for i := start; i < len(t); i++ {
			rec(t, i+1, append(cur, t[i]))
		}
	}
	for _, t := range txns {
		rec(t, 0, nil)
	}
	for k, c := range counts {
		if c < minSup {
			delete(counts, k)
		}
	}
	return counts
}

func TestMineAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		nTx := 10 + rng.Intn(30)
		txns := make([]Transaction, nTx)
		for i := range txns {
			n := 1 + rng.Intn(6)
			seen := map[uint32]bool{}
			var items []uint32
			for len(items) < n {
				v := uint32(rng.Intn(12))
				if !seen[v] {
					seen[v] = true
					items = append(items, v)
				}
			}
			txns[i] = tx(items...)
		}
		minSup := 2 + rng.Intn(3)
		res, err := Mine(txns, Config{MinSupport: minSup})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(txns, minSup, 0)
		if len(res.Frequent) != len(want) {
			t.Fatalf("trial %d: %d patterns, brute force %d", trial, len(res.Frequent), len(want))
		}
		for _, p := range res.Frequent {
			if want[Key(p.Items)] != p.Support {
				t.Fatalf("trial %d: %v support %d, want %d", trial, p.Items, p.Support, want[Key(p.Items)])
			}
		}
	}
}

func TestKeyRoundtrip(t *testing.T) {
	items := []uint32{0, 1, 4294967295, 17}
	k := Key(items)
	if len(k) != 4*len(items) {
		t.Fatalf("key of %d items is %d bytes", len(items), len(k))
	}
	for i, want := range items {
		if got := binary.LittleEndian.Uint32([]byte(k[4*i:])); got != want {
			t.Errorf("item %d decodes to %d, want %d", i, got, want)
		}
	}
	if Key(nil) != "" {
		t.Error("empty itemset must have the empty key")
	}
}

func TestMineDistributedMatchesCentralized(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	txns := make([]Transaction, 200)
	for i := range txns {
		n := 2 + rng.Intn(8)
		seen := map[uint32]bool{}
		var items []uint32
		for len(items) < n {
			v := uint32(rng.Intn(30))
			if !seen[v] {
				seen[v] = true
				items = append(items, v)
			}
		}
		txns[i] = tx(items...)
	}
	const frac = 0.1
	minSup := int(frac * float64(len(txns)))
	central, err := Mine(txns, Config{MinSupport: minSup})
	if err != nil {
		t.Fatal(err)
	}
	// Split into 4 partitions round-robin.
	parts := make([][]Transaction, 4)
	for i, x := range txns {
		parts[i%4] = append(parts[i%4], x)
	}
	dist, err := MineDistributed(parts, frac, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The Savasere scheme is exact: same frequent sets and supports.
	if len(dist.Frequent) != len(central.Frequent) {
		t.Fatalf("distributed %d patterns, centralized %d", len(dist.Frequent), len(central.Frequent))
	}
	cm := map[string]int{}
	for _, p := range central.Frequent {
		cm[Key(p.Items)] = p.Support
	}
	for _, p := range dist.Frequent {
		if cm[Key(p.Items)] != p.Support {
			t.Errorf("pattern %v support %d vs centralized %d", p.Items, p.Support, cm[Key(p.Items)])
		}
	}
	if dist.Candidates < len(dist.Frequent) {
		t.Error("candidates fewer than final frequent sets")
	}
	if dist.FalsePositives != dist.Candidates-len(dist.Frequent) {
		t.Error("false positive accounting inconsistent")
	}
}

func TestSkewInflatesCandidates(t *testing.T) {
	// Two content groups. Balanced (representative) partitions see
	// both groups and generate few false positives; skewed partitions
	// (group per partition) make every group-pattern locally frequent,
	// inflating the global candidate set. This is the paper's central
	// claim about payload-aware partitioning.
	rng := rand.New(rand.NewSource(31))
	mkGroup := func(base uint32, n int) []Transaction {
		out := make([]Transaction, n)
		for i := range out {
			var items []uint32
			for j := 0; j < 5; j++ {
				items = append(items, base+uint32(rng.Intn(12)))
			}
			out[i] = tx(dedup(items)...)
		}
		return out
	}
	a := mkGroup(0, 100)
	b := mkGroup(100, 100)
	all := append(append([]Transaction{}, a...), b...)

	skewed := [][]Transaction{a, b}
	balanced := make([][]Transaction, 2)
	for i, x := range all {
		balanced[i%2] = append(balanced[i%2], x)
	}
	const frac = 0.15
	ds, err := MineDistributed(skewed, frac, 3)
	if err != nil {
		t.Fatal(err)
	}
	db, err := MineDistributed(balanced, frac, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ds.FalsePositives <= db.FalsePositives {
		t.Errorf("skewed false positives %d not above balanced %d",
			ds.FalsePositives, db.FalsePositives)
	}
	if ds.Candidates <= db.Candidates {
		t.Errorf("skewed candidates %d not above balanced %d", ds.Candidates, db.Candidates)
	}
}

func dedup(items []uint32) []uint32 {
	seen := map[uint32]bool{}
	var out []uint32
	for _, v := range items {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func TestMineDistributedValidation(t *testing.T) {
	if _, err := MineDistributed(nil, 0.1, 0); err == nil {
		t.Error("no partitions accepted")
	}
	if _, err := MineDistributed([][]Transaction{{}}, 0.1, 0); err == nil {
		t.Error("all-empty partitions accepted")
	}
	if _, err := MineLocal([]Transaction{tx(1)}, 0, 0); err == nil {
		t.Error("zero support fraction accepted")
	}
	if _, err := MineLocal([]Transaction{tx(1)}, 1.5, 0); err == nil {
		t.Error("support fraction > 1 accepted")
	}
}

func TestMineDistributedEmptyPartitionTolerated(t *testing.T) {
	parts := [][]Transaction{classicDataset(), {}}
	res, err := MineDistributed(parts, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frequent) == 0 {
		t.Error("no patterns found")
	}
	if res.LocalCosts[1] != 0 {
		t.Error("empty partition accrued local cost")
	}
	// An executor that skips an empty partition hands the union no
	// result for it at all.
	local, err := MineLocal(classicDataset(), 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := GlobalCandidates([]*PartitionResult{nil, local, nil}); len(got) != res.Candidates {
		t.Errorf("%d candidates with nil rows, want %d", len(got), res.Candidates)
	}
}

func TestCostDeterminism(t *testing.T) {
	txns := classicDataset()
	a, err := Mine(txns, Config{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Mine(txns, Config{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || a.Candidates != b.Candidates {
		t.Error("cost accounting not deterministic")
	}
}

// countCandidatesCases are inputs CountCandidates accepts although Mine
// never produces them: unsorted transactions, transactions that repeat
// an item (each repeat of a candidate's first item tests the candidate
// again), candidates naming items no transaction holds, and a large
// item id.
func countCandidatesCases() []struct {
	name  string
	txns  []Transaction
	cands [][]uint32
	k     int
} {
	rng := rand.New(rand.NewSource(19))
	var noisy []Transaction
	for i := 0; i < 300; i++ {
		t := make(Transaction, 1+rng.Intn(9))
		for j := range t {
			t[j] = uint32(rng.Intn(12)) // unsorted, with repeats
		}
		noisy = append(noisy, t)
	}
	var triples [][]uint32
	for a := uint32(0); a < 12; a += 2 {
		for b := a + 1; b < 12; b += 3 {
			triples = append(triples, []uint32{a, b, (a + b) % 12})
		}
	}
	return []struct {
		name  string
		txns  []Transaction
		cands [][]uint32
		k     int
	}{
		{"sorted", classicDataset(), [][]uint32{{1, 3}, {2, 5}, {3, 5}, {1, 5}}, 2},
		{"unsorted", []Transaction{{5, 2, 3}, {3, 1}, {4, 3, 1}, {9}}, [][]uint32{{1, 3}, {3, 5}, {3, 1}, {2, 3}}, 2},
		{"repeated items", []Transaction{{2, 2, 5}, {5, 2, 2, 2}, {7, 7}}, [][]uint32{{2, 5}, {5, 2}, {7, 7}, {2, 2}}, 2},
		{"absent and huge ids", []Transaction{{1, 4000000000, 3}, {3, 4000000000}}, [][]uint32{{1, 4000000000}, {6, 7}, {4000000000, 3}, {3, 8}}, 2},
		{"random triples", noisy, triples, 3},
	}
}

// TestCountCandidatesRecorded holds the counts and the cost on those
// inputs to what the map-per-transaction version of d781e05 returned.
func TestCountCandidatesRecorded(t *testing.T) {
	want := []struct {
		counts []int
		cost   float64
	}{
		{[]int{2, 3, 2, 1}, 32},
		{[]int{2, 1, 2, 1}, 27},
		{[]int{5, 2, 2, 5}, 37},
		{[]int{1, 0, 2, 0}, 15},
		{[]int{46, 52, 57, 42, 16, 21, 11, 18, 22, 23, 16, 11, 21, 19}, 6694},
	}
	for i, c := range countCandidatesCases() {
		counts, cost := CountCandidates(c.txns, c.cands, c.k)
		if !reflect.DeepEqual(counts, want[i].counts) || cost != want[i].cost {
			t.Errorf("%s: counts %v cost %v, recorded %v and %v", c.name, counts, cost, want[i].counts, want[i].cost)
		}
	}
}

// TestCountCandidatesAllocations: the membership structure is built
// once per call, so ten times the transactions cost no more objects.
func TestCountCandidatesAllocations(t *testing.T) {
	c := countCandidatesCases()[4]
	var many []Transaction
	for i := 0; i < 10; i++ {
		many = append(many, c.txns...)
	}
	allocs := func(txns []Transaction) float64 {
		return testing.AllocsPerRun(5, func() { CountCandidates(txns, c.cands, c.k) })
	}
	if one, ten := allocs(c.txns), allocs(many); one != ten {
		t.Errorf("CountCandidates allocates %v objects on %d transactions, %v on %d", one, len(c.txns), ten, len(many))
	}
}

func BenchmarkMine1000Txns(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	txns := make([]Transaction, 1000)
	for i := range txns {
		var items []uint32
		for j := 0; j < 10; j++ {
			items = append(items, uint32(rng.Intn(50)))
		}
		txns[i] = tx(dedup(items)...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mine(txns, Config{MinSupport: 50}); err != nil {
			b.Fatal(err)
		}
	}
}
