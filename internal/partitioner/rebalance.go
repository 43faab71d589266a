package partitioner

import "fmt"

// Move describes one record's migration between partitions.
type Move struct {
	Record int
	From   int
	To     int
}

// Rebalance transforms an existing assignment into one with the new
// target sizes while moving as few records as possible. The paper
// amortizes its one-time profiling cost "over multiple runs on the
// full dataset" (§III); when conditions change between runs — node
// speeds re-profiled, green-energy forecasts shifted, a different α —
// the optimizer emits new sizes, and shipping whole partitions again
// would dwarf the gains. Only |Σ max(0, old_j − new_j)| records move.
//
// Records are taken from the tail of each overfull partition (for
// similar-together placements the tail is a strata boundary, limiting
// entropy damage) and appended to underfull partitions in order.
// The input assignment is not modified, and the output shares its
// backing arrays: every partition starts as a capacity-clipped
// sub-slice of its input partition (part[:keep:keep]), so appending to
// an output partition reallocates rather than writing into the input.
// Both are read-only to the caller.
func Rebalance(a *Assignment, newSizes []int) (*Assignment, []Move, error) {
	if a == nil {
		return nil, nil, fmt.Errorf("partitioner: nil assignment")
	}
	if len(newSizes) != a.P() {
		return nil, nil, fmt.Errorf("partitioner: %d new sizes for %d partitions", len(newSizes), a.P())
	}
	total := 0
	for j, s := range newSizes {
		if s < 0 {
			return nil, nil, fmt.Errorf("partitioner: negative size %d for partition %d", s, j)
		}
		total += s
	}
	have := 0
	for _, part := range a.Parts {
		have += len(part)
	}
	if total != have {
		return nil, nil, fmt.Errorf("partitioner: new sizes sum %d but assignment holds %d records", total, have)
	}
	out := &Assignment{Parts: make([][]int, a.P())}
	var moves []Move // surplus records, tails first; To set as they are placed
	for j, part := range a.Parts {
		keep := min(len(part), newSizes[j])
		out.Parts[j] = part[:keep:keep]
		for _, r := range part[keep:] {
			moves = append(moves, Move{Record: r, From: j})
		}
	}
	si := 0
	for j := range out.Parts {
		for len(out.Parts[j]) < newSizes[j] {
			if si >= len(moves) {
				return nil, nil, fmt.Errorf("partitioner: rebalance ran out of surplus records")
			}
			moves[si].To = j
			out.Parts[j] = append(out.Parts[j], moves[si].Record)
			si++
		}
	}
	if si != len(moves) {
		return nil, nil, fmt.Errorf("partitioner: %d surplus records unplaced", len(moves)-si)
	}
	return out, moves, nil
}
