// Package partitioner implements the data partitioner (paper §III-E):
// it turns the stratifier's clusters and the Pareto modeler's partition
// sizes into concrete record placements, and ships them to storage.
//
// Two placement schemes are supported, both driven by stratification:
//
//   - Representative: each partition is a stratified sample without
//     replacement of the whole dataset, so every partition reflects the
//     global payload distribution (what frequent pattern mining wants —
//     it minimizes false-positive candidates from partition skew).
//   - SimilarTogether: records are ordered by stratum and partitions
//     are consecutive chunks of the optimizer's sizes, minimizing
//     per-partition entropy (what compression wants).
package partitioner

import (
	"errors"
	"fmt"

	"pareto/internal/pivots"
)

// Scheme selects the placement strategy.
type Scheme int

// Placement schemes.
const (
	// Representative makes every partition a stratified sample of the
	// full dataset.
	Representative Scheme = iota
	// SimilarTogether groups same-stratum records into the same
	// partition (low-entropy partitions).
	SimilarTogether
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case Representative:
		return "representative"
	case SimilarTogether:
		return "similar-together"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Assignment is a complete placement: Parts[j] lists the record
// indices of partition j, in their within-partition order.
type Assignment struct {
	Parts [][]int
}

// P returns the partition count.
func (a *Assignment) P() int { return len(a.Parts) }

// Sizes returns per-partition record counts.
func (a *Assignment) Sizes() []int {
	s := make([]int, len(a.Parts))
	for j, p := range a.Parts {
		s[j] = len(p)
	}
	return s
}

// Validate checks the assignment covers 0..n−1 exactly once.
func (a *Assignment) Validate(n int) error {
	seen := make([]bool, n)
	count := 0
	for j, part := range a.Parts {
		for _, r := range part {
			if r < 0 || r >= n {
				return fmt.Errorf("partitioner: partition %d holds out-of-range record %d", j, r)
			}
			if seen[r] {
				return fmt.Errorf("partitioner: record %d placed twice", r)
			}
			seen[r] = true
			count++
		}
	}
	if count != n {
		return fmt.Errorf("partitioner: placed %d of %d records", count, n)
	}
	return nil
}

// Partition builds an assignment that places every record of an
// n-record dataset into partitions of exactly the given sizes
// (Σ sizes = n), using the strata membership lists from the
// stratifier. members[s] lists the record indices of stratum s.
func Partition(scheme Scheme, members [][]int, sizes []int) (*Assignment, error) {
	n := 0
	for _, m := range members {
		n += len(m)
	}
	total := 0
	for j, s := range sizes {
		if s < 0 {
			return nil, fmt.Errorf("partitioner: negative size %d for partition %d", s, j)
		}
		total += s
	}
	if total != n {
		return nil, fmt.Errorf("partitioner: sizes sum %d but %d records exist", total, n)
	}
	if len(sizes) == 0 {
		return nil, errors.New("partitioner: no partitions")
	}
	switch scheme {
	case Representative:
		return representative(members, sizes), nil
	case SimilarTogether:
		return similarTogether(members, sizes), nil
	default:
		return nil, fmt.Errorf("partitioner: unknown scheme %v", scheme)
	}
}

// representative deals each stratum's members across partitions in
// proportion to the partition sizes, so every partition's stratum mix
// approximates the global mix (a stratified sample without
// replacement, per Cochran). Residual capacity imbalances are settled
// with a final rebalancing pass.
func representative(members [][]int, sizes []int) *Assignment {
	p := len(sizes)
	parts := make([][]int, p)
	remaining := make([]int, p)
	var n int
	copy(remaining, sizes)
	for j := range sizes {
		parts[j] = make([]int, 0, sizes[j])
		n += sizes[j]
	}
	for _, stratum := range members {
		if len(stratum) == 0 {
			continue
		}
		// Quota for partition j: |stratum| × sizes[j]/n, apportioned by
		// largest remainder but capped by remaining capacity.
		quota := make([]int, p)
		type rem struct {
			j int
			f float64
		}
		rems := make([]rem, 0, p)
		assigned := 0
		for j := range sizes {
			exact := float64(len(stratum)) * float64(sizes[j]) / float64(n)
			quota[j] = int(exact)
			if quota[j] > remaining[j] {
				quota[j] = remaining[j]
			}
			assigned += quota[j]
			rems = append(rems, rem{j, exact - float64(quota[j])})
		}
		// Distribute the leftover members to partitions with spare
		// capacity, largest fractional part first.
		left := len(stratum) - assigned
		for left > 0 {
			best := -1
			for i := range rems {
				j := rems[i].j
				if quota[j] >= remaining[j] {
					continue
				}
				if best < 0 || rems[i].f > rems[best].f {
					best = i
				}
			}
			if best < 0 {
				break // no capacity anywhere (cannot happen: totals match)
			}
			quota[rems[best].j]++
			rems[best].f = -1
			left--
		}
		// Deal members in order.
		idx := 0
		for j := 0; j < p; j++ {
			for k := 0; k < quota[j]; k++ {
				parts[j] = append(parts[j], stratum[idx])
				idx++
			}
			remaining[j] -= quota[j]
		}
		// Any members left (all remainders capped): spill into spare
		// capacity in partition order.
		for idx < len(stratum) {
			for j := 0; j < p && idx < len(stratum); j++ {
				if remaining[j] > 0 {
					parts[j] = append(parts[j], stratum[idx])
					idx++
					remaining[j]--
				}
			}
		}
	}
	return &Assignment{Parts: parts}
}

// similarTogether concatenates strata in order and cuts consecutive
// chunks of the requested sizes, so each partition holds (parts of)
// as few distinct strata as possible.
func similarTogether(members [][]int, sizes []int) *Assignment {
	ordered := make([]int, 0)
	for _, stratum := range members {
		ordered = append(ordered, stratum...)
	}
	parts := make([][]int, len(sizes))
	off := 0
	for j, s := range sizes {
		parts[j] = append([]int(nil), ordered[off:off+s]...)
		off += s
	}
	return &Assignment{Parts: parts}
}

// EqualSizes splits n records into p near-equal partition sizes (the
// stratified baseline's sizing: payload-aware placement, no hardware
// awareness).
func EqualSizes(n, p int) []int {
	sizes := make([]int, p)
	base := n / p
	extra := n % p
	for j := range sizes {
		sizes[j] = base
		if j < extra {
			sizes[j]++
		}
	}
	return sizes
}

// RecordsOf serializes partition j of the corpus in placement order,
// one length-prefixed record per element (the §IV storage layout).
func RecordsOf(c pivots.Corpus, a *Assignment, j int) [][]byte {
	return EncodeRecords(c, a.Parts[j])
}

// EncodeRecords is RecordsOf over any run of record indices — a whole
// partition, or the suffix of one that a migration rewrites. The
// records share one arena sized up front, so a run costs two
// allocations however many records it holds; each record is cut with
// its capacity clamped to its length, so appending to one reallocates
// instead of overwriting its neighbour.
func EncodeRecords(c pivots.Corpus, records []int) [][]byte {
	return new(recordScratch).encode(c, records)
}

// recordScratch is the arena and record slice a run is serialized
// into, reused from one run to the next.
type recordScratch struct {
	arena []byte
	recs  [][]byte
}

// encode serializes the records into s, reallocating only what is too
// small for the run. The result is valid until the next encode.
func (s *recordScratch) encode(c pivots.Corpus, records []int) [][]byte {
	total := 0
	for _, r := range records {
		total += c.RecordSize(r)
	}
	if cap(s.arena) < total {
		s.arena = make([]byte, 0, total)
	}
	if cap(s.recs) < len(records) {
		s.recs = make([][]byte, 0, len(records))
	}
	arena, out := s.arena[:0], s.recs[:len(records)]
	for i, r := range records {
		lo := len(arena)
		arena = c.AppendRecord(arena, r)
		out[i] = arena[lo:len(arena):len(arena)]
	}
	return out
}
