package apriori

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"pareto/internal/datasets"
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

// sortPatterns orders patterns by length then lexicographic items.
func sortPatterns(ps []Pattern) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i].Items, ps[j].Items
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		for x := range a {
			if a[x] != b[x] {
				return a[x] < b[x]
			}
		}
		return false
	})
}

func TestMineClassicExample(t *testing.T) {
	// With min support 2: {1}:2 {2}:3 {3}:3 {5}:3, {1,3}:2 {2,3}:2
	// {2,5}:3 {3,5}:2, {2,3,5}:2.
	res, err := Mine(NewPartition(classicDataset()), Config{MinSupport: 2})
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
	res, err := Mine(NewPartition(classicDataset()), Config{MinSupport: 2, MaxLen: 1})
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
	if _, err := Mine(NewPartition(nil), Config{MinSupport: 0}); err == nil {
		t.Error("zero support accepted")
	}
}

func TestMineEmptyAndSparse(t *testing.T) {
	res, err := Mine(NewPartition(nil), Config{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frequent) != 0 {
		t.Error("empty dataset mined patterns")
	}
	// All-distinct transactions: only singletons at support 1.
	res, err = Mine(NewPartition([]Transaction{tx(1), tx(2), tx(3)}), Config{MinSupport: 2})
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
		res, err := Mine(NewPartition(txns), Config{MinSupport: minSup})
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
	central, err := Mine(NewPartition(txns), Config{MinSupport: minSup})
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
	falsePositives := func(r *DistributedResult) int { return r.Candidates - len(r.Frequent) }
	if falsePositives(ds) <= falsePositives(db) {
		t.Errorf("skewed false positives %d not above balanced %d",
			falsePositives(ds), falsePositives(db))
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
	one := NewPartition([]Transaction{tx(1)})
	if _, err := MineLocal(one, 0, 0); err == nil {
		t.Error("zero support fraction accepted")
	}
	if _, err := MineLocal(one, 1.5, 0); err == nil {
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
	local, err := MineLocal(NewPartition(classicDataset()), 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := GlobalCandidates([]*PartitionResult{nil, local, nil}); len(got) != res.Candidates {
		t.Errorf("%d candidates with nil rows, want %d", len(got), res.Candidates)
	}
}

func TestCostDeterminism(t *testing.T) {
	p := NewPartition(classicDataset())
	a, err := Mine(p, Config{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Mine(p, Config{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || a.Candidates != b.Candidates {
		t.Error("cost accounting not deterministic")
	}
}

// countCandidatesCases are inputs the count pass accepts although Mine
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

// TestCountCandidatesRecorded holds the counts and the cost of one
// count pass over candidates of one length on those inputs to what the
// map-per-transaction CountCandidates of d781e05 returned, and holds
// the per-call-numbering reference below to the same values.
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
		counts, cost := CountPass(NewPartition(c.txns), c.cands)
		if !reflect.DeepEqual(counts, want[i].counts) || cost != want[i].cost {
			t.Errorf("%s: counts %v cost %v, recorded %v and %v", c.name, counts, cost, want[i].counts, want[i].cost)
		}
		counts, cost = refCountCandidates(c.txns, c.cands, c.k)
		if !reflect.DeepEqual(counts, want[i].counts) || cost != want[i].cost {
			t.Errorf("%s: reference counts %v cost %v, recorded %v and %v", c.name, counts, cost, want[i].counts, want[i].cost)
		}
	}
}

// TestCountCandidatesAllocations: the partition's numbering and the
// count pass's scratch are flat, so ten times the transactions cost no
// more objects.
func TestCountCandidatesAllocations(t *testing.T) {
	c := countCandidatesCases()[4]
	var many []Transaction
	for i := 0; i < 10; i++ {
		many = append(many, c.txns...)
	}
	allocs := func(txns []Transaction) float64 {
		return testing.AllocsPerRun(5, func() { CountPass(NewPartition(txns), c.cands) })
	}
	if one, ten := allocs(c.txns), allocs(many); one != ten {
		t.Errorf("NewPartition + CountPass allocate %v objects on %d transactions, %v on %d", one, len(c.txns), ten, len(many))
	}
}

// refCountCandidates is the per-call numbering CountCandidates this
// package replaced, kept as the reference the count pass and Mine are
// compared with: it numbers the items its candidates name in a map on
// every call and looks every transaction item up in it.
func refCountCandidates(txns []Transaction, cands [][]uint32, k int) ([]int, float64) {
	counts := make([]int, len(cands))
	if len(cands) == 0 {
		return counts, 0
	}
	id := make(map[uint32]int32)
	var flat [][]int32
	for _, c := range cands {
		var f []int32
		for _, it := range c {
			d, ok := id[it]
			if !ok {
				d = int32(len(id))
				id[it] = d
			}
			f = append(f, d)
		}
		flat = append(flat, f)
	}
	inTxn := make([]int, len(id))
	var cost float64
	for ti, t := range txns {
		if len(t) < k {
			cost++
			continue
		}
		var held []int32
		for _, it := range t {
			if d, ok := id[it]; ok {
				inTxn[d] = ti + 1
				held = append(held, d)
			}
		}
		cost += float64(len(t))
		for _, first := range held {
			for ci, cand := range flat {
				if cand[0] != first {
					continue
				}
				cost += float64(len(cand))
				ok := true
				for _, d := range cand[1:] {
					if inTxn[d] != ti+1 {
						ok = false
						break
					}
				}
				if ok {
					counts[ci]++
				}
			}
		}
	}
	return counts, cost
}

// refCountPass groups candidates by length for refCountCandidates.
func refCountPass(txns []Transaction, cands [][]uint32) ([]int, float64) {
	counts := make([]int, len(cands))
	var cost float64
	byLen := make(map[int][]int)
	for i, c := range cands {
		byLen[len(c)] = append(byLen[len(c)], i)
	}
	for k, idxs := range byLen {
		sub := make([][]uint32, len(idxs))
		for j, i := range idxs {
			sub[j] = cands[i]
		}
		c, w := refCountCandidates(txns, sub, k)
		cost += w
		for j, i := range idxs {
			counts[i] = c[j]
		}
	}
	return counts, cost
}

// refMine is levelwise Apriori on raw items, the way Mine ran before it
// read a Partition: a map for level 1, candidates joined on item
// prefixes and pruned through a set of keys, refCountCandidates per
// level.
func refMine(txns []Transaction, cfg Config) *Result {
	res := &Result{}
	counts := make(map[uint32]int)
	for _, t := range txns {
		for _, it := range t {
			counts[it]++
		}
		res.Cost += float64(len(t))
	}
	var level []Pattern
	for it, c := range counts {
		if c >= cfg.MinSupport {
			level = append(level, Pattern{Items: []uint32{it}, Support: c})
		}
	}
	res.Candidates += len(counts)
	sortPatterns(level)
	res.Frequent = append(res.Frequent, level...)
	for k := 2; len(level) > 1 && (cfg.MaxLen == 0 || k <= cfg.MaxLen); k++ {
		freq := make(map[string]bool, len(level))
		for _, p := range level {
			freq[Key(p.Items)] = true
		}
		var cands [][]uint32
		for i, a := range level {
			for _, b := range level[i+1:] {
				if !slices.Equal(a.Items[:k-2], b.Items[:k-2]) {
					break
				}
				cand := append(slices.Clone(a.Items), b.Items[k-2])
				pruned := false
				for skip := range cand {
					sub := append(slices.Clone(cand[:skip]), cand[skip+1:]...)
					pruned = pruned || !freq[Key(sub)]
				}
				if !pruned {
					cands = append(cands, cand)
				}
			}
		}
		res.Candidates += len(cands)
		if len(cands) == 0 {
			break
		}
		counted, cost := refCountCandidates(txns, cands, k)
		res.Cost += cost
		level = level[:0:0]
		for i, c := range counted {
			if c >= cfg.MinSupport {
				level = append(level, Pattern{Items: cands[i], Support: c})
			}
		}
		sortPatterns(level)
		res.Frequent = append(res.Frequent, level...)
	}
	return res
}

// TestMineMatchesReference holds Mine to refMine, pattern by pattern and
// cost with ==, on random corpora with and without a length cap.
func TestMineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 12; trial++ {
		txns := randomTxns(rng, 100+rng.Intn(200), 12, uint32(10+rng.Intn(30)))
		cfg := Config{MinSupport: 3 + rng.Intn(8), MaxLen: rng.Intn(5)}
		got, err := Mine(NewPartition(txns), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := refMine(txns, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (cfg %+v): Mine %d patterns, %d candidates, cost %v; reference %d, %d, %v",
				trial, cfg, len(got.Frequent), got.Candidates, got.Cost, len(want.Frequent), want.Candidates, want.Cost)
		}
	}
}

// randomTxns draws n sorted, duplicate-free transactions of 1 … maxLen
// items below alphabet.
func randomTxns(rng *rand.Rand, n, maxLen int, alphabet uint32) []Transaction {
	txns := make([]Transaction, n)
	for i := range txns {
		var items []uint32
		for range 1 + rng.Intn(maxLen) {
			items = append(items, uint32(rng.Intn(int(alphabet))))
		}
		txns[i] = tx(dedup(items)...)
	}
	return txns
}

// mapTxns copies txns with every item v replaced by to(v).
func mapTxns(txns []Transaction, to func(uint32) uint32) []Transaction {
	out := make([]Transaction, len(txns))
	for i, t := range txns {
		out[i] = make(Transaction, len(t))
		for j, v := range t {
			out[i][j] = to(v)
		}
	}
	return out
}

// mapPatterns copies ps with every item v replaced by to(v).
func mapPatterns(ps []Pattern, to func(uint32) uint32) []Pattern {
	out := make([]Pattern, len(ps))
	for i, p := range ps {
		out[i] = Pattern{Items: mapTxns([]Transaction{p.Items}, to)[0], Support: p.Support}
	}
	return out
}

// TestArbitraryItemsMineAndCountAlike: a partition numbers its items
// through a dictionary sized by how many distinct items there are,
// never by their values. Mapping a corpus's items, order kept, onto the
// top of the uint32 range or spread sparsely across it changes nothing
// that Mine, MineLocal, CountPass or MineDistributed return: the same
// patterns under the same map, and the supports, candidate counts and
// costs the map-based reference gives on the unmapped corpus.
// Candidates naming items no transaction holds count 0.
func TestArbitraryItemsMineAndCountAlike(t *testing.T) {
	const alphabet = 40
	maps := map[string]func(uint32) uint32{
		"identity": func(v uint32) uint32 { return v },
		"near-max": func(v uint32) uint32 { return math.MaxUint32 - 2*alphabet + v },
		"sparse":   func(v uint32) uint32 { return v*0x01000193 + 12345 },
	}
	txns := randomTxns(rand.New(rand.NewSource(41)), 360, 14, alphabet)
	parts := [][]Transaction{txns[:100], txns[100:230], txns[230:]}
	const frac, maxLen = 0.06, 3
	cfg := Config{MinSupport: 20, MaxLen: maxLen}
	want := refMine(txns, cfg)
	cands := [][]uint32{{alphabet}, {0, alphabet + 1}, {1, 2, alphabet + 2}}
	for _, p := range want.Frequent {
		cands = append(cands, p.Items)
	}
	wantCounts, wantCost := refCountPass(txns, cands)
	for ci := 0; ci < 3; ci++ {
		if wantCounts[ci] != 0 {
			t.Fatalf("candidate %v with an absent item counted %d", cands[ci], wantCounts[ci])
		}
	}
	// The distributed reference: local Apriori per part, the union, a
	// count pass per part.
	var locals []*PartitionResult
	var wantLocal, wantCount []float64
	for _, part := range parts {
		r := refMine(part, Config{MinSupport: int(frac * float64(len(part))), MaxLen: maxLen})
		locals = append(locals, &PartitionResult{Local: r.Frequent, Cost: r.Cost})
		wantLocal = append(wantLocal, r.Cost)
	}
	global := GlobalCandidates(locals)
	for _, part := range parts {
		_, cost := refCountPass(part, global)
		wantCount = append(wantCount, cost)
	}
	for name, to := range maps {
		mapped := mapTxns(txns, to)
		p := NewPartition(mapped)
		if len(p.items.Values) != alphabet {
			t.Errorf("%s: dictionary of %d items, want %d", name, len(p.items.Values), alphabet)
		}
		got, err := Mine(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Candidates != want.Candidates || got.Cost != want.Cost || !reflect.DeepEqual(got.Frequent, mapPatterns(want.Frequent, to)) {
			t.Errorf("%s: Mine gives %d patterns, %d candidates, cost %v; the reference %d, %d, %v",
				name, len(got.Frequent), got.Candidates, got.Cost, len(want.Frequent), want.Candidates, want.Cost)
		}
		mappedCands := make([][]uint32, len(cands))
		for i, c := range cands {
			mappedCands[i] = mapTxns([]Transaction{c}, to)[0]
		}
		counts, cost := CountPass(p, mappedCands)
		if cost != wantCost || !slices.Equal(counts, wantCounts) {
			t.Errorf("%s: CountPass gives cost %v and %v, the reference %v and %v", name, cost, counts, wantCost, wantCounts)
		}
		mappedParts := make([][]Transaction, len(parts))
		for i, part := range parts {
			mappedParts[i] = mapTxns(part, to)
			local, err := MineLocal(NewPartition(mappedParts[i]), frac, maxLen)
			if err != nil {
				t.Fatal(err)
			}
			if local.Cost != locals[i].Cost || !reflect.DeepEqual(local.Local, mapPatterns(locals[i].Local, to)) {
				t.Errorf("%s: MineLocal of part %d gives %d patterns at cost %v; the reference %d at %v",
					name, i, len(local.Local), local.Cost, len(locals[i].Local), locals[i].Cost)
			}
		}
		d, err := MineDistributed(mappedParts, frac, maxLen)
		if err != nil {
			t.Fatal(err)
		}
		if d.Candidates != len(global) || !slices.Equal(d.LocalCosts, wantLocal) || !slices.Equal(d.CountCosts, wantCount) {
			t.Errorf("%s: MineDistributed %d candidates, costs %v / %v; the reference %d, %v / %v",
				name, d.Candidates, d.LocalCosts, d.CountCosts, len(global), wantLocal, wantCount)
		}
	}
}

// TestWideCodesMineAndCountAlike: a partition with more distinct items
// than 16-bit codes can number is restated in int32 codes, and mines
// and counts like the reference.
func TestWideCodesMineAndCountAlike(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	txns := make([]Transaction, 30000)
	for i := range txns {
		unique := uint32(8 + 3*i) // three items no other transaction holds
		txns[i] = tx(dedup([]uint32{uint32(rng.Intn(8)), uint32(rng.Intn(8)), unique, unique + 1, unique + 2})...)
	}
	p := NewPartition(txns)
	if p.wide == nil || len(p.items.Values) <= narrowCodes {
		t.Fatalf("%d distinct items in narrow codes", len(p.items.Values))
	}
	cfg := Config{MinSupport: 400, MaxLen: 3}
	got, err := Mine(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := refMine(txns, cfg)
	if !reflect.DeepEqual(got, want) || len(want.Frequent) < 20 {
		t.Fatalf("Mine %d patterns, %d candidates, cost %v; reference %d, %d, %v",
			len(got.Frequent), got.Candidates, got.Cost, len(want.Frequent), want.Candidates, want.Cost)
	}
	cands := [][]uint32{{math.MaxUint32}, {0, 8}, {1, math.MaxUint32}}
	for _, pat := range want.Frequent {
		cands = append(cands, pat.Items)
	}
	counts, cost := CountPass(p, cands)
	wantCounts, wantCost := refCountPass(txns, cands)
	if cost != wantCost || !slices.Equal(counts, wantCounts) {
		t.Errorf("CountPass gives cost %v and %v, the reference %v and %v", cost, counts, wantCost, wantCounts)
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
		if _, err := Mine(NewPartition(txns), Config{MinSupport: 50}); err != nil {
			b.Fatal(err)
		}
	}
}

// textPartition is one partition shaped like the text_mining_dist
// benchmark's: a quarter of RCV1Like(0.10), about 20k documents of
// about 60 terms over its 14,937-term vocabulary.
func textPartition(b *testing.B) []Transaction {
	cfg := datasets.RCV1Like(0.10)
	cfg.NumDocs /= 4
	docs, _, err := datasets.GenerateText(cfg)
	if err != nil {
		b.Fatal(err)
	}
	txns := make([]Transaction, len(docs))
	for i, d := range docs {
		txns[i] = d.Terms
	}
	return txns
}

// BenchmarkMineText is phase 1 of the text job on one partition:
// number it, then mine it at support 0.08 up to length 3.
func BenchmarkMineText(b *testing.B) {
	txns := textPartition(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MineLocal(NewPartition(txns), 0.08, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCountPassText is phase 2 of the text job on one partition:
// count the partition's own phase-1 itemsets against it, numbered
// already as phase 1 left it.
func BenchmarkCountPassText(b *testing.B) {
	p := NewPartition(textPartition(b))
	local, err := MineLocal(p, 0.08, 3)
	if err != nil {
		b.Fatal(err)
	}
	cands := GlobalCandidates([]*PartitionResult{local})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CountPass(p, cands)
	}
}
