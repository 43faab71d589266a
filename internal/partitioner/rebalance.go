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
// The input assignment is not modified.
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
	var surplus []int // records available to move, tails first
	var moves []Move
	fromOf := make(map[int]int)
	for j, part := range a.Parts {
		if len(part) > newSizes[j] {
			keep := part[:newSizes[j]]
			out.Parts[j] = append([]int(nil), keep...)
			for _, r := range part[newSizes[j]:] {
				surplus = append(surplus, r)
				fromOf[r] = j
			}
		} else {
			out.Parts[j] = append([]int(nil), part...)
		}
	}
	si := 0
	for j := range out.Parts {
		for len(out.Parts[j]) < newSizes[j] {
			if si >= len(surplus) {
				return nil, nil, fmt.Errorf("partitioner: rebalance ran out of surplus records")
			}
			r := surplus[si]
			si++
			out.Parts[j] = append(out.Parts[j], r)
			moves = append(moves, Move{Record: r, From: fromOf[r], To: j})
		}
	}
	if si != len(surplus) {
		return nil, nil, fmt.Errorf("partitioner: %d surplus records unplaced", len(surplus)-si)
	}
	return out, moves, nil
}
