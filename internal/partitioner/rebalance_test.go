package partitioner

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestRebalanceBasic(t *testing.T) {
	a := &Assignment{Parts: [][]int{{0, 1, 2, 3}, {4, 5}, {6}}}
	out, moves, err := Rebalance(a, []int{2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(7); err != nil {
		t.Fatal(err)
	}
	for j, s := range out.Sizes() {
		if s != []int{2, 2, 3}[j] {
			t.Errorf("partition %d size %d", j, s)
		}
	}
	// Exactly the minimum moves: partition 0 sheds 2.
	if len(moves) != MinMoves([]int{4, 2, 1}, []int{2, 2, 3}) {
		t.Errorf("%d moves, want minimum %d", len(moves), 2)
	}
	// The input is untouched.
	if len(a.Parts[0]) != 4 {
		t.Error("input assignment mutated")
	}
	// Moved records come from tails: records 2 and 3.
	for _, m := range moves {
		if m.Record != 2 && m.Record != 3 {
			t.Errorf("moved %d, want tail records 2/3", m.Record)
		}
		if m.From != 0 || m.To != 2 {
			t.Errorf("move %+v, want 0→2", m)
		}
	}
}

func TestRebalanceNoop(t *testing.T) {
	a := &Assignment{Parts: [][]int{{0, 1}, {2}}}
	out, moves, err := Rebalance(a, []int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 0 {
		t.Errorf("no-op rebalance produced %d moves", len(moves))
	}
	if err := out.Validate(3); err != nil {
		t.Fatal(err)
	}
}

func TestRebalanceValidation(t *testing.T) {
	a := &Assignment{Parts: [][]int{{0, 1}, {2}}}
	if _, _, err := Rebalance(nil, []int{1}); err == nil {
		t.Error("nil assignment accepted")
	}
	if _, _, err := Rebalance(a, []int{3}); err == nil {
		t.Error("size-count mismatch accepted")
	}
	if _, _, err := Rebalance(a, []int{4, -1}); err == nil {
		t.Error("negative size accepted")
	}
	if _, _, err := Rebalance(a, []int{2, 2}); err == nil {
		t.Error("sum mismatch accepted")
	}
}

func TestRebalanceRandomizedMinimality(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 50; trial++ {
		p := 2 + rng.Intn(6)
		// Random old assignment.
		n := 0
		parts := make([][]int, p)
		for j := range parts {
			c := rng.Intn(40)
			for k := 0; k < c; k++ {
				parts[j] = append(parts[j], n)
				n++
			}
		}
		if n == 0 {
			continue
		}
		a := &Assignment{Parts: parts}
		before := cloneParts(a)
		oldSizes := a.Sizes()
		// Random new sizes summing to n.
		newSizes := make([]int, p)
		left := n
		for j := 0; j < p-1; j++ {
			newSizes[j] = rng.Intn(left + 1)
			left -= newSizes[j]
		}
		newSizes[p-1] = left
		out, moves, err := Rebalance(a, newSizes)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := out.Validate(n); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for j, s := range out.Sizes() {
			if s != newSizes[j] {
				t.Fatalf("trial %d: partition %d size %d, want %d", trial, j, s, newSizes[j])
			}
		}
		if len(moves) != MinMoves(oldSizes, newSizes) {
			t.Fatalf("trial %d: %d moves, minimum %d", trial, len(moves), MinMoves(oldSizes, newSizes))
		}
		wantOut, wantMoves := refRebalance(a, newSizes)
		if !reflect.DeepEqual(cloneParts(out), wantOut) || !reflect.DeepEqual(moves, wantMoves) {
			t.Fatalf("trial %d: Rebalance differs from the copying reference", trial)
		}
		if !reflect.DeepEqual(cloneParts(a), before) {
			t.Fatalf("trial %d: Rebalance modified its input", trial)
		}
		// The output shares the input's arrays, clipped: appending to it
		// must not write into the input.
		for j := range out.Parts {
			out.Parts[j] = append(out.Parts[j], -1, -2)
		}
		if !reflect.DeepEqual(cloneParts(a), before) {
			t.Fatalf("trial %d: appending to the output wrote into the input", trial)
		}
		// Unmoved records stayed in place.
		moved := map[int]bool{}
		for _, m := range moves {
			moved[m.Record] = true
		}
		for j, part := range a.Parts {
			pos := map[int]bool{}
			for _, r := range out.Parts[j] {
				pos[r] = true
			}
			for _, r := range part {
				if !moved[r] && !pos[r] {
					t.Fatalf("trial %d: unmoved record %d left partition %d", trial, r, j)
				}
			}
		}
	}
}

// refRebalance is Rebalance written as a copy: every output partition
// a fresh slice, each surplus record's source looked up in a map.
func refRebalance(a *Assignment, newSizes []int) ([][]int, []Move) {
	out := make([][]int, a.P())
	var surplus []int
	var moves []Move
	fromOf := make(map[int]int)
	for j, part := range a.Parts {
		keep := min(len(part), newSizes[j])
		out[j] = append([]int{}, part[:keep]...)
		for _, r := range part[keep:] {
			surplus = append(surplus, r)
			fromOf[r] = j
		}
	}
	for j := range out {
		for len(out[j]) < newSizes[j] {
			r := surplus[0]
			surplus = surplus[1:]
			out[j] = append(out[j], r)
			moves = append(moves, Move{Record: r, From: fromOf[r], To: j})
		}
	}
	return out, moves
}

// cloneParts deep-copies an assignment's partitions, nil and empty
// alike as empty.
func cloneParts(a *Assignment) [][]int {
	out := make([][]int, a.P())
	for j, part := range a.Parts {
		out[j] = append([]int{}, part...)
	}
	return out
}

// MinMoves returns the information-theoretic minimum number of record
// moves to go from the old sizes to the new: Σ_j max(0, old_j − new_j).
func MinMoves(oldSizes, newSizes []int) int {
	n := 0
	for j := range oldSizes {
		if j < len(newSizes) && oldSizes[j] > newSizes[j] {
			n += oldSizes[j] - newSizes[j]
		}
	}
	return n
}
