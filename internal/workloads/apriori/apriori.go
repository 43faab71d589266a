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
	"slices"
	"sort"

	"pareto/internal/workloads/dict"
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

// Partition is one partition's transactions numbered for mining: its
// distinct items get the codes 0 … d−1 in ascending item order, and
// every transaction is restated in codes once. Both Savasere phases
// (Mine / MineLocal, then CountPass) read the same Partition, so their
// per-transaction loops index arrays by code; the hash probes, two per
// item occurrence, are paid here. A Partition is read-only after
// NewPartition, so any number of goroutines may mine or count against
// one.
type Partition struct {
	items dict.Dict
	// Transaction t is the codes at[t] … at[t+1]−1, in its own item
	// order, repeats kept: in narrow when every code fits 16 bits, else
	// in wide. A text partition's vocabulary fits, and halves what the
	// restated transactions take.
	narrow []uint16
	wide   []int32
	at     []int
}

// narrowCodes is the most codes narrow can hold.
const narrowCodes = 1 << 16

// NewPartition numbers the transactions. They need not be sorted, and a
// transaction that repeats an item keeps the repeat.
func NewPartition(txns []Transaction) *Partition {
	at := make([]int, len(txns)+1)
	for i, t := range txns {
		at[i+1] = at[i] + len(t)
	}
	p := &Partition{at: at}
	list := func(i int) []uint32 { return txns[i] }
	p.items.Build(len(txns), list)
	if len(p.items.Values) <= narrowCodes {
		p.narrow = make([]uint16, at[len(txns)])
		dict.Encode(&p.items, p.narrow, len(txns), list)
	} else {
		p.wide = make([]int32, at[len(txns)])
		dict.Encode(&p.items, p.wide, len(txns), list)
	}
	return p
}

// size returns the transaction count.
func (p *Partition) size() int { return len(p.at) - 1 }

// appendPatterns appends the itemsets of level (flat, k codes each) with
// their supports to out, in items, carved from one backing array.
func (p *Partition) appendPatterns(out []Pattern, level []int32, k int, support []int32) []Pattern {
	items := make([]uint32, len(level))
	for i, c := range level {
		items[i] = p.items.Values[c]
	}
	for i, s := range support {
		out = append(out, Pattern{Items: items[i*k : (i+1)*k : (i+1)*k], Support: int(s)})
	}
	return out
}

// Mine runs levelwise Apriori over the partition's transactions.
//
// Itemsets are mined as tuples of codes. Codes ascend with items, so
// each level comes out in lexicographic item order and a candidate's
// first code is its smallest item's, as if the items were mined.
func Mine(p *Partition, cfg Config) (*Result, error) {
	if cfg.MinSupport < 1 {
		return nil, fmt.Errorf("apriori: min support %d, need ≥ 1", cfg.MinSupport)
	}
	d := len(p.items.Values)
	// Level 1: count single items, one cost unit per occurrence; every
	// distinct item is a candidate.
	res := &Result{Candidates: d, Cost: float64(p.at[p.size()])}
	support := make([]int32, d)
	if p.wide != nil {
		tally(p.wide, support)
	} else {
		tally(p.narrow, support)
	}
	var level []int32
	for c, n := range support {
		if int(n) >= cfg.MinSupport {
			support[len(level)] = n
			level = append(level, int32(c))
		}
	}
	res.Frequent = p.appendPatterns(res.Frequent, level, 1, support[:len(level)])
	s := newCounter(d)
	for k := 2; len(level) > k-1 && (cfg.MaxLen == 0 || k <= cfg.MaxLen); k++ {
		cands := join(level, k-1)
		n := len(cands) / k
		res.Candidates += n
		if n == 0 {
			break
		}
		counts, cost := s.count(p, cands, k)
		res.Cost += float64(cost)
		// Keep the frequent candidates, compacted in place: they are the
		// next level, still in lexicographic order.
		kept := 0
		for i, c := range counts {
			if int(c) >= cfg.MinSupport {
				copy(cands[kept*k:], cands[i*k:(i+1)*k])
				counts[kept] = c
				kept++
			}
		}
		level = cands[:kept*k]
		res.Frequent = p.appendPatterns(res.Frequent, level, k, counts[:kept])
	}
	return res, nil
}

// tally adds one to support[c] per occurrence of code c.
func tally[C uint16 | int32](codes []C, support []int32) {
	for _, c := range codes {
		support[c]++
	}
}

// join returns the candidate (m+1)-itemsets of a level of m-itemsets
// (flat, m codes each, in lexicographic order): every two itemsets that
// share their first m−1 codes give the first extended by the second's
// last code, kept if each of its m-subsets is in the level (the Apriori
// pruning property). The candidates come out flat and in lexicographic
// order too.
func join(level []int32, m int) []int32 {
	n := len(level) / m
	var cands []int32
	sub := make([]int32, 0, m)
	for i := 0; i < n; i++ {
		a := level[i*m : (i+1)*m]
		for j := i + 1; j < n; j++ {
			b := level[j*m : (j+1)*m]
			if !slices.Equal(a[:m-1], b[:m-1]) {
				break // sorted level: once prefixes diverge, stop
			}
			at := len(cands)
			cands = append(append(cands, a...), b[m-1])
			if !allSubsetsIn(level, m, cands[at:], sub) {
				cands = cands[:at]
			}
		}
	}
	return cands
}

// allSubsetsIn reports whether every m-subset of cand is an itemset of
// level (flat, m codes each, sorted), searching it by bisection. The
// subsets that drop one of the last two codes are the join's parents;
// checking them again is cheap and keeps the loop uniform.
func allSubsetsIn(level []int32, m int, cand, sub []int32) bool {
	n := len(level) / m
	for skip := range cand {
		sub = append(append(sub[:0], cand[:skip]...), cand[skip+1:]...)
		i := sort.Search(n, func(i int) bool { return slices.Compare(level[i*m:(i+1)*m], sub) >= 0 })
		if i == n || !slices.Equal(level[i*m:(i+1)*m], sub) {
			return false
		}
	}
	return true
}

// counter is the scratch of one Mine or CountPass call, sized by the
// partition's code count d and reused across its levels.
type counter struct {
	// mark[c] == t+1 says transaction t holds code c. Cell d stands for
	// an item the partition lacks (see CountPass) and is never marked.
	mark []int32
	// firstAt[c] … firstAt[c+1] are the slots of the candidates whose
	// first code is c.
	firstAt []int32
}

func newCounter(d int) *counter {
	return &counter{mark: make([]int32, d+1), firstAt: make([]int32, d+2)}
}

// count counts, for every candidate k-itemset of cands (flat, k codes
// each; every first code below d), the transactions that hold it. It
// returns the counts, aligned with cands, and the pass's deterministic
// cost: one unit per transaction shorter than k, one per item of a
// longer one, and k per candidate test. A candidate is tested once per
// occurrence of its first item, so a transaction that repeats that item
// tests (and counts) it again.
//
// The candidates are laid out by first code, with the k−1 codes after
// the first at a fixed stride in rest. A transaction then costs two
// passes over its codes: one marks them, one tests the candidates each
// code starts against the marks.
func (s *counter) count(p *Partition, cands []int32, k int) ([]int32, int) {
	n, w := len(cands)/k, k-1
	// Counting sort by first code. Code c's candidate count goes to
	// firstAt[c+2], so after the prefix sum firstAt[c+1] is the slot of
	// c's next candidate; placing them advances it to the end of c's
	// range — the start of code c+1's.
	firstAt := s.firstAt
	clear(firstAt)
	for i := 0; i < n; i++ {
		firstAt[cands[i*k]+2]++
	}
	for c := 2; c < len(firstAt); c++ {
		firstAt[c] += firstAt[c-1]
	}
	rest := make([]int32, n*w)
	from := make([]int32, n)
	for i := 0; i < n; i++ {
		c := cands[i*k]
		slot := int(firstAt[c+1])
		firstAt[c+1]++
		copy(rest[slot*w:(slot+1)*w], cands[i*k+1:(i+1)*k])
		from[slot] = int32(i)
	}
	hits := make([]int32, n)
	clear(s.mark)
	var cost int
	if p.wide != nil {
		cost = scan(p.wide, p.at, k, firstAt, rest, hits, s.mark)
	} else {
		cost = scan(p.narrow, p.at, k, firstAt, rest, hits, s.mark)
	}
	counts := make([]int32, n)
	for slot, i := range from {
		counts[i] = hits[slot]
	}
	return counts, cost
}

// scan is count's pass over the transactions, transaction t being
// codes[at[t]:at[t+1]]: it marks the transaction's codes, then adds to
// hits[j] for each candidate j a code starts whose rest is all marked.
// It returns the pass's cost.
func scan[C uint16 | int32](codes []C, at []int, k int, firstAt, rest, hits, mark []int32) int {
	w, cost := k-1, 0
	for t := 0; t+1 < len(at); t++ {
		txn := codes[at[t]:at[t+1]]
		if len(txn) < k {
			cost++
			continue
		}
		cost += len(txn)
		stamp := int32(t + 1)
		for _, c := range txn {
			mark[c] = stamp
		}
		for _, c := range txn {
			lo, hi := int(firstAt[c]), int(firstAt[c+1])
			cost += (hi - lo) * k
		next:
			for j := lo; j < hi; j++ {
				for _, d := range rest[j*w : (j+1)*w] {
					if mark[d] != stamp {
						continue next
					}
				}
				hits[j]++
			}
		}
	}
	return cost
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
func MineLocal(p *Partition, supportFrac float64, maxLen int) (*PartitionResult, error) {
	if supportFrac <= 0 || supportFrac > 1 {
		return nil, fmt.Errorf("apriori: support fraction %v out of (0,1]", supportFrac)
	}
	minSup := int(supportFrac * float64(p.size()))
	if minSup < 1 {
		minSup = 1
	}
	res, err := Mine(p, Config{MinSupport: minSup, MaxLen: maxLen})
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
// per-candidate counts and the pass's cost. The candidates of each
// length are counted in one pass over the partition. A candidate's
// items need not be sorted, nor held by the partition: one whose first
// item the partition lacks is never tested, and a later item it lacks
// becomes code d, which no transaction holds. An empty candidate counts
// 0 and costs nothing.
func CountPass(p *Partition, cands [][]uint32) ([]int, float64) {
	counts := make([]int, len(cands))
	byLen := make([]int, len(cands))
	total := 0
	for i, c := range cands {
		byLen[i] = i
		total += len(c)
	}
	slices.SortStableFunc(byLen, func(a, b int) int { return len(cands[a]) - len(cands[b]) })
	d := int32(len(p.items.Values))
	s := newCounter(int(d))
	flat := make([]int32, 0, total)
	tested := make([]int, 0, len(cands))
	cost := 0
	for lo, hi := 0, 0; lo < len(byLen); lo = hi {
		k := len(cands[byLen[lo]])
		flat, tested = flat[:0], tested[:0]
		for hi = lo; hi < len(byLen) && len(cands[byLen[hi]]) == k; hi++ {
			at := len(flat)
			for _, it := range cands[byLen[hi]] {
				code := p.items.Code(it)
				if code < 0 {
					code = d
				}
				flat = append(flat, code)
			}
			if k == 0 || flat[at] == d {
				flat = flat[:at]
				continue
			}
			tested = append(tested, byLen[hi])
		}
		if k > 0 {
			got, w := s.count(p, flat, k)
			cost += w
			for j, i := range tested {
				counts[i] = int(got[j])
			}
		}
	}
	return counts, float64(cost)
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
// over the given partitions at a global support fraction, numbering
// each partition once for both phases. It is the reference
// implementation the experiment harness parallelizes across simulated
// nodes; both must agree (tested).
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
	views := make([]*Partition, len(partitions))
	parts := make([]*PartitionResult, len(partitions))
	for i, txns := range partitions {
		views[i] = NewPartition(txns)
		if len(txns) == 0 {
			parts[i] = &PartitionResult{}
			continue
		}
		pr, err := MineLocal(views[i], supportFrac, maxLen)
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
	for i, v := range views {
		counts, cost := CountPass(v, cands)
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
