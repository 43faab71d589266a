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
	base := stratum * f.width
	for a, v := range s {
		f.counts[base+a][v]++
	}
}

// move applies one membership change (old → now) as a delta.
func (f *freqCounters) move(s sketch.Sketch, old, now int) {
	oldBase, newBase := old*f.width, now*f.width
	for a, v := range s {
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

// modeCenter builds stratum's composite center from its counters: per
// attribute, the top-l values (count desc, value asc). One arena backs
// all candidate rows; the full slice expressions keep rows from
// aliasing each other. sel is the caller's selection scratch.
func (f *freqCounters) modeCenter(stratum, l int, sel *[]valCount) Center {
	vals := make([][]uint64, f.width)
	arena := make([]uint64, 0, f.width*l)
	for a := range vals {
		lo := len(arena)
		arena = appendTopL(arena, f.row(stratum, a), l, sel)
		vals[a] = arena[lo:len(arena):len(arena)]
	}
	return Center{Values: vals}
}
