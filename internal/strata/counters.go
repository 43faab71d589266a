package strata

import "pareto/internal/sketch"

// freqCounters maintains the per-(stratum, attribute) value→frequency
// maps of the online DriftTracker, which folds ingested records into
// frozen strata: counts.row(s, a)[v] is the number of stratum-s members
// whose sketch attribute a equals v. Values stay values here because a
// stream can bring any value after the freeze. compositeKModes does not
// use these maps: it counts dense per-call cells (kmodes.go).
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

// modeCenter builds stratum's composite center from its counters: per
// attribute, the top-l values (count desc, value asc). sel is the
// caller's selection scratch.
func (f *freqCounters) modeCenter(stratum, l int, sel *[]valCount) Center {
	c := blankCenter(f.width, l)
	for a := range c.Values {
		c.Values[a] = appendTopL(c.Values[a], f.row(stratum, a), l, sel)
	}
	return c
}

// appendTopL appends the up-to-l highest-ranked values of freq to dst
// and returns the extended slice. *sel is caller-owned selection
// scratch, grown once to l and reused, so steady-state selection is
// allocation-free (unlike a sort, which would order all of freq to
// keep l values and allocate a comparator closure per call).
func appendTopL(dst []uint64, freq map[uint64]int, l int, sel *[]valCount) []uint64 {
	if cap(*sel) < l {
		*sel = make([]valCount, l)
	}
	top := (*sel)[:l]
	n := 0
	for v, c := range freq {
		n = insertTopL(top, n, valCount{v: v, n: c})
	}
	for _, e := range top[:n] {
		dst = append(dst, e.v)
	}
	return dst
}
