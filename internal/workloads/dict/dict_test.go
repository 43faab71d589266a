package dict

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestLabelDictGrows: several hundred sparse values grow the index past
// its first size, keep it between two and four times the value count,
// number the values in ascending order, and Encode hands every
// occurrence the code Code gives its value, at either width.
func TestLabelDictGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	lists := make([][]uint32, 400)
	total := 0
	for i := range lists {
		lists[i] = make([]uint32, 1+rng.Intn(12))
		for j := range lists[i] {
			lists[i][j] = uint32(rng.Intn(300))*0x9E3779B1 + 7
		}
		total += len(lists[i])
	}
	list := func(i int) []uint32 { return lists[i] }
	var d Dict
	d.Build(len(lists), list)
	if len(d.index) <= initSlots || len(d.index) < 2*len(d.Values) || len(d.index) > 4*len(d.Values) {
		t.Errorf("%d values in %d slots", len(d.Values), len(d.index))
	}
	if !slices.IsSorted(d.Values) || len(slices.Compact(slices.Clone(d.Values))) != len(d.Values) {
		t.Error("values not strictly ascending")
	}
	for c, v := range d.Values {
		if got := d.Code(v); got != int32(c) {
			t.Fatalf("value %d has code %d, want %d", v, got, c)
		}
	}
	narrow, wide := make([]uint16, total), make([]int32, total)
	Encode(&d, narrow, len(lists), list)
	Encode(&d, wide, len(lists), list)
	k := 0
	for _, l := range lists {
		for _, v := range l {
			if d.Values[wide[k]] != v || int32(narrow[k]) != wide[k] {
				t.Fatalf("occurrence %d of value %d got codes %d and %d", k, v, narrow[k], wide[k])
			}
			k++
		}
	}
	if got := d.Code(1); got != -1 {
		t.Errorf("absent value has code %d", got)
	}
}

// TestBuildEdges: no values at all, and values at both ends of the
// range with repeats and an empty list. Three values, one of them
// MaxUint32, keep the index at its first size: it is sized by how many
// values there are, not by how large they are.
func TestBuildEdges(t *testing.T) {
	var d Dict
	d.Build(0, nil)
	if len(d.Values) != 0 || d.Code(0) != -1 {
		t.Errorf("empty build: %v, code %d", d.Values, d.Code(0))
	}
	lists := [][]uint32{{math.MaxUint32, 0, math.MaxUint32}, {}, {5}}
	list := func(i int) []uint32 { return lists[i] }
	d.Build(len(lists), list)
	codes := make([]int32, 4)
	Encode(&d, codes, len(lists), list)
	if !slices.Equal(d.Values, []uint32{0, 5, math.MaxUint32}) || !slices.Equal(codes, []int32{2, 0, 2, 1}) {
		t.Errorf("values %v codes %v", d.Values, codes)
	}
	if len(d.index) != initSlots {
		t.Errorf("3 values in %d slots, want %d", len(d.index), initSlots)
	}
}
