package strata

import "pareto/internal/sketch"

// freqCounters maintains the per-(stratum, attribute) value→frequency
// maps behind incremental center updates: counts.row(s, a)[v] is the
// number of stratum-s members whose sketch attribute a equals v.
// Entries are deleted when they reach zero, so top-L selection (and any
// other consumer) sees exactly the values present among current
// members. The type is shared between the kmodes assign/update loop,
// which applies per-round membership deltas, and the online
// DriftTracker, which folds ingested records into frozen strata.
type freqCounters struct {
	k, width int
	counts   []map[uint64]int
}

// newFreqCounters allocates empty counters for k strata of the given
// sketch width.
func newFreqCounters(k, width int) *freqCounters {
	f := &freqCounters{k: k, width: width, counts: make([]map[uint64]int, k*width)}
	for i := range f.counts {
		f.counts[i] = make(map[uint64]int)
	}
	return f
}

// row returns the value→frequency map of (stratum, attribute).
func (f *freqCounters) row(stratum, attr int) map[uint64]int {
	return f.counts[stratum*f.width+attr]
}

// count returns the frequency of value v at (stratum, attribute).
func (f *freqCounters) count(stratum, attr int, v uint64) int {
	return f.counts[stratum*f.width+attr][v]
}

// add folds one member sketch into stratum's counters.
func (f *freqCounters) add(s sketch.Sketch, stratum int) {
	f.addAttrs(s, stratum, 0, f.width)
}

// addAttrs is add restricted to attributes [lo, hi). The maps of
// disjoint attribute ranges are disjoint, so goroutines that each own a
// range may fold the same records concurrently without locks.
func (f *freqCounters) addAttrs(s sketch.Sketch, stratum, lo, hi int) {
	base := stratum * f.width
	for a := lo; a < hi; a++ {
		f.counts[base+a][s[a]]++
	}
}

// moveAttrs applies one membership change (old → now) as a delta on
// attributes [lo, hi).
func (f *freqCounters) moveAttrs(s sketch.Sketch, old, now, lo, hi int) {
	oldBase, newBase := old*f.width, now*f.width
	for a := lo; a < hi; a++ {
		v := s[a]
		oc := f.counts[oldBase+a]
		if oc[v] == 1 {
			delete(oc, v)
		} else {
			oc[v]--
		}
		f.counts[newBase+a][v]++
	}
}

// clearStratum empties every attribute row of one stratum, keeping the
// maps so their capacity is reused.
func (f *freqCounters) clearStratum(stratum int) {
	base := stratum * f.width
	for a := 0; a < f.width; a++ {
		clear(f.counts[base+a])
	}
}

// blankCenter allocates a center with empty attribute rows, each with
// room for l values. One arena backs all rows; the full slice
// expressions keep rows from aliasing each other.
func blankCenter(width, l int) Center {
	vals := make([][]uint64, width)
	arena := make([]uint64, width*l)
	for a := range vals {
		vals[a] = arena[a*l : a*l : (a+1)*l]
	}
	return Center{Values: vals}
}

// fillMode sets rows [lo, hi) of the blank center c to stratum's top-l
// values per attribute (count desc, value asc). sel is the caller's
// selection scratch.
func (f *freqCounters) fillMode(c Center, stratum, l, lo, hi int, sel *[]valCount) {
	for a := lo; a < hi; a++ {
		c.Values[a] = appendTopL(c.Values[a], f.row(stratum, a), l, sel)
	}
}

// modeCenter builds stratum's composite center from its counters.
func (f *freqCounters) modeCenter(stratum, l int, sel *[]valCount) Center {
	c := blankCenter(f.width, l)
	f.fillMode(c, stratum, l, 0, f.width, sel)
	return c
}
