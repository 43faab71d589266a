// Package apriori implements frequent itemset mining: the classic
// levelwise Apriori algorithm (Agrawal & Srikant, VLDB 1994) and the
// partition-based distributed scheme of Savasere, Omiecinski & Navathe
// (VLDB 1995) that the paper runs on text data (§V-C1).
//
// The distributed scheme mines each partition locally at the scaled
// support threshold, unions the locally frequent itemsets into a
// global candidate set, and prunes false positives with one global
// counting pass. Its cost — and the experiments' sensitivity to
// partition skew — is driven by the number of candidate patterns: a
// skewed partition manufactures locally-frequent-but-globally-rare
// itemsets that every partition must then count.
//
// All mining work is metered into an abstract, deterministic cost
// (units of candidate-against-transaction work), which the simulated
// cluster converts into node-speed-dependent execution time.
package apriori

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Transaction is a sorted set of item IDs (a document's term set).
type Transaction = []uint32

// Pattern is one frequent itemset with its support count.
type Pattern struct {
	Items   []uint32
	Support int
}

// Key encodes the itemset canonically for map keys.
func Key(items []uint32) string {
	b := make([]byte, 4*len(items))
	for i, it := range items {
		binary.LittleEndian.PutUint32(b[4*i:], it)
	}
	return string(b)
}

// Result summarizes one mining run.
type Result struct {
	// Frequent holds the frequent itemsets, sorted by (length, items).
	Frequent []Pattern
	// Candidates is the total number of candidate itemsets counted
	// across all levels — the search-space size.
	Candidates int
	// Cost is the abstract work metric (deterministic).
	Cost float64
}

// Config bounds a mining run.
type Config struct {
	// MinSupport is the absolute minimum transaction count an itemset
	// must appear in. Required ≥ 1.
	MinSupport int
	// MaxLen caps itemset length; 0 means unbounded.
	MaxLen int
}

// Mine runs levelwise Apriori over the transactions.
func Mine(txns []Transaction, cfg Config) (*Result, error) {
	if cfg.MinSupport < 1 {
		return nil, fmt.Errorf("apriori: min support %d, need ≥ 1", cfg.MinSupport)
	}
	res := &Result{}
	// Level 1: count single items.
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
	k := 2
	for len(level) > 1 && (cfg.MaxLen == 0 || k <= cfg.MaxLen) {
		cands := generateCandidates(level)
		res.Candidates += len(cands)
		if len(cands) == 0 {
			break
		}
		counted, cost := CountCandidates(txns, cands, k)
		res.Cost += cost
		level = level[:0]
		for i, c := range counted {
			if c >= cfg.MinSupport {
				level = append(level, Pattern{Items: cands[i], Support: c})
			}
		}
		sortPatterns(level)
		res.Frequent = append(res.Frequent, level...)
		k++
	}
	return res, nil
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

// generateCandidates joins frequent (k−1)-itemsets sharing a (k−2)
// prefix and prunes candidates with an infrequent (k−1)-subset.
func generateCandidates(level []Pattern) [][]uint32 {
	freq := make(map[string]bool, len(level))
	for _, p := range level {
		freq[Key(p.Items)] = true
	}
	var cands [][]uint32
	for i := 0; i < len(level); i++ {
		a := level[i].Items
		for j := i + 1; j < len(level); j++ {
			b := level[j].Items
			if !samePrefix(a, b) {
				break // sorted level: once prefixes diverge, stop
			}
			// Join: a ∪ {b[last]}; a[last] < b[last] by sort order.
			cand := make([]uint32, len(a)+1)
			copy(cand, a)
			cand[len(a)] = b[len(b)-1]
			if allSubsetsFrequent(cand, freq) {
				cands = append(cands, cand)
			}
		}
	}
	return cands
}

func samePrefix(a, b []uint32) bool {
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// allSubsetsFrequent applies the Apriori pruning property.
func allSubsetsFrequent(cand []uint32, freq map[string]bool) bool {
	sub := make([]uint32, len(cand)-1)
	for skip := range cand {
		// The subset dropping the last or second-to-last element was
		// one of the join parents; checking them again is cheap and
		// keeps the code uniform.
		idx := 0
		for i, v := range cand {
			if i == skip {
				continue
			}
			sub[idx] = v
			idx++
		}
		if !freq[Key(sub)] {
			return false
		}
	}
	return true
}

// CountCandidates counts, for every candidate k-itemset, the number of
// transactions containing it. It returns the counts (aligned with
// cands) and the deterministic work cost: one unit per
// candidate-transaction containment test step. Transactions need not be
// sorted; one that repeats an item tests the candidates starting with
// it once per repeat.
func CountCandidates(txns []Transaction, cands [][]uint32, k int) ([]int, float64) {
	counts := make([]int, len(cands))
	if len(cands) == 0 {
		return counts, 0
	}
	// Number the items the candidates name 0, 1, 2, … and restate the
	// candidates in those numbers, cands[i] at flat[at[i]:at[i+1]]. No
	// other item can start a candidate or be asked after, so the
	// per-transaction work below is array reads on numbered items.
	id := make(map[uint32]int32)
	at := make([]int32, len(cands)+1)
	for i, c := range cands {
		at[i+1] = at[i] + int32(len(c))
	}
	flat := make([]int32, 0, at[len(cands)])
	for _, c := range cands {
		for _, it := range c {
			d, ok := id[it]
			if !ok {
				d = int32(len(id))
				id[it] = d
			}
			flat = append(flat, d)
		}
	}
	// Index candidates by first item to skip impossible tests: those
	// starting with item d are byFirst[firstAt[d]:firstAt[d+1]].
	firstAt := make([]int32, len(id)+2)
	for i := range cands {
		firstAt[flat[at[i]]+2]++
	}
	for d := 2; d < len(firstAt); d++ {
		firstAt[d] += firstAt[d-1]
	}
	byFirst := make([]int32, len(cands))
	for i := range cands {
		d := flat[at[i]]
		byFirst[firstAt[d+1]] = int32(i)
		firstAt[d+1]++
	}
	// inTxn[d] == ti+1 says transaction ti holds item d; stamping with
	// the transaction number clears the set between transactions.
	inTxn := make([]int, len(id))
	var held []int32
	var cost float64
	for ti, t := range txns {
		if len(t) < k {
			cost++
			continue
		}
		held = held[:0]
		for _, it := range t {
			if d, ok := id[it]; ok {
				inTxn[d] = ti + 1
				held = append(held, d)
			}
		}
		cost += float64(len(t))
		for _, first := range held {
			for _, ci := range byFirst[firstAt[first]:firstAt[first+1]] {
				cand := flat[at[ci]:at[ci+1]]
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

// PartitionResult is one partition's local mining output in the
// Savasere scheme.
type PartitionResult struct {
	// Local holds the locally frequent itemsets.
	Local []Pattern
	// Cost is the partition's local mining cost.
	Cost float64
}

// MineLocal mines one partition with the support threshold scaled to
// the partition's share: an itemset globally frequent at fraction s
// must be locally frequent at fraction s in at least one partition
// (the Savasere completeness property).
func MineLocal(txns []Transaction, supportFrac float64, maxLen int) (*PartitionResult, error) {
	if supportFrac <= 0 || supportFrac > 1 {
		return nil, fmt.Errorf("apriori: support fraction %v out of (0,1]", supportFrac)
	}
	minSup := int(supportFrac * float64(len(txns)))
	if minSup < 1 {
		minSup = 1
	}
	res, err := Mine(txns, Config{MinSupport: minSup, MaxLen: maxLen})
	if err != nil {
		return nil, err
	}
	return &PartitionResult{Local: res.Frequent, Cost: res.Cost}, nil
}

// GlobalCandidates unions the locally frequent itemsets of all
// partitions — the candidate set the global pruning pass must count.
// Nil entries (empty partitions) are skipped.
func GlobalCandidates(parts []*PartitionResult) [][]uint32 {
	seen := make(map[string]bool)
	var cands [][]uint32
	for _, p := range parts {
		if p == nil {
			continue
		}
		for _, pat := range p.Local {
			k := Key(pat.Items)
			if !seen[k] {
				seen[k] = true
				cands = append(cands, pat.Items)
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
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
	return cands
}

// CountPass counts the global candidates against one partition's
// transactions (the second scan of the Savasere scheme), returning
// per-candidate counts and the pass's cost.
func CountPass(txns []Transaction, cands [][]uint32) ([]int, float64) {
	counts := make([]int, len(cands))
	var cost float64
	// Group candidates by length so CountCandidates' k-filter applies.
	byLen := make(map[int][]int)
	for i, c := range cands {
		byLen[len(c)] = append(byLen[len(c)], i)
	}
	for k, idxs := range byLen {
		sub := make([][]uint32, len(idxs))
		for j, i := range idxs {
			sub[j] = cands[i]
		}
		c, w := CountCandidates(txns, sub, k)
		cost += w
		for j, i := range idxs {
			counts[i] = c[j]
		}
	}
	return counts, cost
}

// DistributedResult is the full outcome of the partitioned algorithm.
type DistributedResult struct {
	// Frequent holds the globally frequent itemsets.
	Frequent []Pattern
	// Candidates is the size of the global candidate set (locally
	// frequent union) — the quality metric partition skew inflates.
	Candidates int
	// FalsePositives counts candidates that failed the global check.
	FalsePositives int
	// LocalCosts[i] is partition i's phase-1 cost; CountCosts[i] its
	// phase-2 cost.
	LocalCosts []float64
	CountCosts []float64
}

// MineDistributed runs the complete two-phase partitioned algorithm
// over the given partitions at a global support fraction. It is the
// reference implementation the experiment harness parallelizes across
// simulated nodes; both must agree (tested).
func MineDistributed(partitions [][]Transaction, supportFrac float64, maxLen int) (*DistributedResult, error) {
	if len(partitions) == 0 {
		return nil, errors.New("apriori: no partitions")
	}
	total := 0
	for _, p := range partitions {
		total += len(p)
	}
	if total == 0 {
		return nil, errors.New("apriori: no transactions")
	}
	parts := make([]*PartitionResult, len(partitions))
	for i, p := range partitions {
		if len(p) == 0 {
			parts[i] = &PartitionResult{}
			continue
		}
		pr, err := MineLocal(p, supportFrac, maxLen)
		if err != nil {
			return nil, fmt.Errorf("apriori: partition %d: %w", i, err)
		}
		parts[i] = pr
	}
	cands := GlobalCandidates(parts)
	res := &DistributedResult{
		Candidates: len(cands),
		LocalCosts: make([]float64, len(partitions)),
		CountCosts: make([]float64, len(partitions)),
	}
	for i, p := range parts {
		res.LocalCosts[i] = p.Cost
	}
	globalCounts := make([]int, len(cands))
	for i, p := range partitions {
		counts, cost := CountPass(p, cands)
		res.CountCosts[i] = cost
		for j, c := range counts {
			globalCounts[j] += c
		}
	}
	// Ceiling, so "globally frequent" implies a count of at least
	// supportFrac of the data — the condition under which the union of
	// locally frequent sets (floored local thresholds) is guaranteed
	// to contain every answer (Savasere's completeness argument).
	minSup := int(math.Ceil(supportFrac * float64(total)))
	if minSup < 1 {
		minSup = 1
	}
	for j, c := range globalCounts {
		if c >= minSup {
			res.Frequent = append(res.Frequent, Pattern{Items: cands[j], Support: c})
		} else {
			res.FalsePositives++
		}
	}
	return res, nil
}
