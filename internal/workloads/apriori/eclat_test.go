package apriori

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// Eclat is the vertical-layout frequent itemset miner (Zaki et al.,
// KDD 1997 — reference [21] of the paper): instead of scanning
// transactions against candidates level by level, it intersects
// per-item transaction-ID lists depth-first. It lives here as an
// independent implementation Mine is compared with: the two must
// return the same itemsets, supports and order on random data,
// MaxLen capping included (the brute-force oracle in apriori_test.go
// enumerates without a cap). No workload mines with it.

// EclatResult mirrors Result for the vertical miner.
type EclatResult struct {
	// Frequent holds the frequent itemsets, sorted by (length, items).
	Frequent []Pattern
	// Cost counts tidlist intersection steps (deterministic).
	Cost float64
}

// MineEclat runs depth-first tidlist-intersection mining.
func MineEclat(txns []Transaction, cfg Config) (*EclatResult, error) {
	if cfg.MinSupport < 1 {
		return nil, fmt.Errorf("apriori: eclat min support %d, need ≥ 1", cfg.MinSupport)
	}
	res := &EclatResult{}
	// Build vertical layout: item → sorted tid list.
	tidlists := make(map[uint32][]int32)
	for tid, t := range txns {
		for _, it := range t {
			tidlists[it] = append(tidlists[it], int32(tid))
		}
		res.Cost += float64(len(t))
	}
	type entry struct {
		item uint32
		tids []int32
	}
	var frontier []entry
	for it, tids := range tidlists {
		if len(tids) >= cfg.MinSupport {
			frontier = append(frontier, entry{it, tids})
			res.Frequent = append(res.Frequent, Pattern{Items: []uint32{it}, Support: len(tids)})
		}
	}
	sort.Slice(frontier, func(i, j int) bool { return frontier[i].item < frontier[j].item })

	// Depth-first: extend prefix P (with tidlist) by each frontier
	// item greater than P's last item.
	var dfs func(prefix []uint32, tids []int32, ext []entry, depth int)
	dfs = func(prefix []uint32, tids []int32, ext []entry, depth int) {
		if cfg.MaxLen > 0 && depth >= cfg.MaxLen {
			return
		}
		var next []entry
		for _, e := range ext {
			inter := intersectTids(tids, e.tids)
			res.Cost += float64(len(tids) + len(e.tids))
			if len(inter) < cfg.MinSupport {
				continue
			}
			items := make([]uint32, len(prefix)+1)
			copy(items, prefix)
			items[len(prefix)] = e.item
			res.Frequent = append(res.Frequent, Pattern{Items: items, Support: len(inter)})
			next = append(next, entry{e.item, inter})
		}
		for i, e := range next {
			items := make([]uint32, len(prefix)+1)
			copy(items, prefix)
			items[len(prefix)] = e.item
			dfs(items, e.tids, next[i+1:], depth+1)
		}
	}
	for i, e := range frontier {
		dfs([]uint32{e.item}, e.tids, frontier[i+1:], 1)
	}
	sortPatterns(res.Frequent)
	return res, nil
}

// intersectTids intersects two ascending tid lists.
func intersectTids(a, b []int32) []int32 {
	out := make([]int32, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func TestEclatValidation(t *testing.T) {
	if _, err := MineEclat(nil, Config{MinSupport: 0}); err == nil {
		t.Error("zero support accepted")
	}
}

func TestEclatClassicExample(t *testing.T) {
	res, err := MineEclat(classicDataset(), Config{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p := findPattern(res.Frequent, 2, 3, 5); p == nil || p.Support != 2 {
		t.Errorf("pattern {2,3,5} = %+v", p)
	}
	if len(res.Frequent) != 9 {
		t.Errorf("%d frequent itemsets, want 9", len(res.Frequent))
	}
}

func TestEclatMatchesApriori(t *testing.T) {
	// The two miners implement the same problem; their outputs must be
	// identical on random data, including supports and MaxLen capping.
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 25; trial++ {
		nTx := 20 + rng.Intn(60)
		txns := make([]Transaction, nTx)
		for i := range txns {
			n := 1 + rng.Intn(8)
			seen := map[uint32]bool{}
			var items []uint32
			for len(items) < n {
				v := uint32(rng.Intn(15))
				if !seen[v] {
					seen[v] = true
					items = append(items, v)
				}
			}
			txns[i] = tx(items...)
		}
		cfg := Config{MinSupport: 2 + rng.Intn(4), MaxLen: rng.Intn(4)} // 0..3
		ap, err := Mine(txns, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ec, err := MineEclat(txns, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(ap.Frequent) != len(ec.Frequent) {
			t.Fatalf("trial %d (cfg %+v): apriori %d vs eclat %d itemsets",
				trial, cfg, len(ap.Frequent), len(ec.Frequent))
		}
		for i := range ap.Frequent {
			a, e := ap.Frequent[i], ec.Frequent[i]
			if Key(a.Items) != Key(e.Items) || a.Support != e.Support {
				t.Fatalf("trial %d: itemset %d differs: %v:%d vs %v:%d",
					trial, i, a.Items, a.Support, e.Items, e.Support)
			}
		}
	}
}

func TestEclatEmptyAndSingleton(t *testing.T) {
	res, err := MineEclat(nil, Config{MinSupport: 1})
	if err != nil || len(res.Frequent) != 0 {
		t.Errorf("empty mine: %v, %v", res, err)
	}
	res, err = MineEclat([]Transaction{tx(5)}, Config{MinSupport: 1})
	if err != nil || len(res.Frequent) != 1 || res.Frequent[0].Support != 1 {
		t.Errorf("singleton mine: %+v, %v", res, err)
	}
}

func TestIntersectTids(t *testing.T) {
	cases := []struct {
		a, b, want []int32
	}{
		{[]int32{1, 2, 3}, []int32{2, 3, 4}, []int32{2, 3}},
		{[]int32{1}, []int32{2}, []int32{}},
		{nil, []int32{1}, []int32{}},
		{[]int32{5, 9}, []int32{5, 9}, []int32{5, 9}},
	}
	for i, c := range cases {
		got := intersectTids(c.a, c.b)
		if len(got) != len(c.want) {
			t.Errorf("case %d: %v", i, got)
			continue
		}
		for j := range got {
			if got[j] != c.want[j] {
				t.Errorf("case %d: %v, want %v", i, got, c.want)
			}
		}
	}
}

func BenchmarkEclatVsApriori(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	txns := make([]Transaction, 1000)
	for i := range txns {
		var items []uint32
		for j := 0; j < 10; j++ {
			items = append(items, uint32(rng.Intn(50)))
		}
		txns[i] = tx(dedup(items)...)
	}
	b.Run("apriori", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Mine(txns, Config{MinSupport: 50}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("eclat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := MineEclat(txns, Config{MinSupport: 50}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
