// Package strata implements the data stratifier (paper §III-C): it
// clusters record sketches with the compositeKModes algorithm of Wang
// et al. (ICDE 2013) so that each cluster — a *stratum* — groups
// records with similar content.
//
// Standard KModes keeps one mode (most frequent value) per attribute
// of each cluster center. Sketch coordinates are drawn from a huge
// universe, so a record matches a single mode with vanishing
// probability and most records end up equidistant from every center
// (the "zero-match" problem). compositeKModes instead keeps the L
// highest-frequency values per attribute; a record coordinate matches
// if it equals any of the L values. With L > 1 the zero-match
// probability drops geometrically while the KModes convergence
// argument (assignment and update both monotonically decrease the
// mismatch objective) is preserved.
//
// The assign/update loop is the planner's hot path (every
// core.BuildPlan stratifies before it can profile or optimize), so the
// implementation is organized around four invariant-preserving
// optimizations — all bit-exact with the naive formulation, which the
// tests keep as a reference implementation:
//
//   - Private codes: each Cluster call first recodes every sketch
//     coordinate onto a dense per-attribute code, its rank among the
//     attribute's distinct values in ascending order, offset so that
//     all attributes share one index space (a "cell"). Code order is
//     value order, so the count-desc, value-asc tie-break of top-L
//     selection reads the same on codes; codes never leave the call,
//     and centers stay values.
//   - For K ≤ 64, assignment reads a cell→center-bitmask table: one
//     array read per attribute, with every center's matches counted at
//     once in bit-sliced counters. Above 64 centers it scans a
//     flattened [K×width×L]uint64 matrix (short attribute rows padded
//     by repeating the first candidate) and abandons a center as soon
//     as its running mismatch count reaches the best distance so far.
//   - Every round — recode, shift, assign, update — is one
//     parallel.For call with one task per worker index. Each worker owns
//     a contiguous record range and attribute range, and its scratch
//     (dirty marks, cell counts, top-L selections) lives in the
//     clusterState, so rounds reuse it instead of reallocating.
//   - Center updates rebuild only the strata whose membership changed,
//     by counting their members' cells in a flat per-worker array; the
//     same workers run the update, each on its own attribute range.
package strata

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"time"

	"pareto/internal/parallel"
	"pareto/internal/sketch"
)

// Config controls compositeKModes clustering.
type Config struct {
	// K is the number of strata (clusters). Required ≥ 1.
	K int
	// L is the number of highest-frequency values retained per center
	// attribute. Required ≥ 1; the paper uses L > 1 to avoid
	// zero-match assignment failures.
	L int
	// MaxIter bounds the assign/update rounds. 0 means DefaultMaxIter.
	MaxIter int
	// Seed drives center initialization; equal seeds give equal runs.
	Seed int64
	// Workers bounds parallelism in the assignment step.
	// 0 means GOMAXPROCS.
	Workers int
}

// DefaultMaxIter is used when Config.MaxIter is zero.
const DefaultMaxIter = 50

// Center is one cluster center: per sketch attribute, up to L candidate
// values ordered by descending member frequency.
type Center struct {
	Values [][]uint64
}

// IterStat is the wall-clock and movement profile of one assign/update
// round, surfaced so planner overhead can be reported alongside the
// paper's figures.
type IterStat struct {
	// Assign is the time spent assigning every record to its nearest
	// center (all workers, wall clock).
	Assign time.Duration
	// Update is the time spent updating centers and reseeding empty
	// strata. Zero on the final round (converged or MaxIter-exhausted),
	// which performs no update.
	Update time.Duration
	// Moved counts records whose stratum changed this round.
	Moved int
}

// Result is a completed clustering.
type Result struct {
	// Assign maps record index → stratum index in [0, K).
	Assign []int
	// Members lists record indices per stratum, each ascending.
	Members [][]int
	// Centers holds the final composite centers. They are always the
	// centers the final Assign was computed against, so Assign, Centers
	// and Cost are mutually consistent even when MaxIter is exhausted.
	Centers []Center
	// Iterations is the number of assign/update rounds executed.
	Iterations int
	// Converged reports whether assignments reached a fixed point
	// before MaxIter.
	Converged bool
	// Cost is the final objective: total attribute mismatches between
	// each record and its center.
	Cost int64
	// IterStats profiles each executed round.
	IterStats []IterStat
	// Busy is the summed busy time of the workers over every assignment
	// round and center update: Busy ÷ (workers × wall) is the share of
	// the cores the clustering kept busy.
	Busy time.Duration
}

// K returns the number of strata.
func (r *Result) K() int { return len(r.Members) }

// Cluster runs compositeKModes over the sketches. All sketches must
// have equal width. K is capped at the number of records.
func Cluster(sketches []sketch.Sketch, cfg Config) (*Result, error) {
	n := len(sketches)
	if n == 0 {
		return nil, errors.New("strata: no sketches to cluster")
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("strata: K = %d, need ≥ 1", cfg.K)
	}
	if cfg.L < 1 {
		return nil, fmt.Errorf("strata: L = %d, need ≥ 1", cfg.L)
	}
	width := len(sketches[0])
	if width == 0 {
		return nil, errors.New("strata: zero-width sketches")
	}
	for i, s := range sketches {
		if len(s) != width {
			return nil, fmt.Errorf("strata: sketch %d has width %d, want %d", i, len(s), width)
		}
	}
	if uint64(n)*uint64(width) > math.MaxInt32 {
		return nil, fmt.Errorf("strata: %d sketches of width %d exceed the int32 cell index", n, width)
	}
	k := cfg.K
	if k > n {
		k = n
	}
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = DefaultMaxIter
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	centers := initCenters(sketches, k, rng)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}

	st := newClusterState(sketches, k, width, cfg.L, parallel.Workers(n, cfg.Workers))

	res := &Result{}
	for iter := 0; iter < maxIter; iter++ {
		res.Iterations = iter + 1
		start := time.Now()
		changed, cost, moved := st.assignAll(centers, assign)
		stat := IterStat{Assign: time.Since(start), Moved: moved}
		res.Cost = cost
		if !changed {
			res.Converged = true
			res.IterStats = append(res.IterStats, stat)
			break
		}
		if iter == maxIter-1 {
			// MaxIter exhausted: skip the trailing update so the
			// returned Centers are the ones Assign and Cost were
			// computed against.
			res.IterStats = append(res.IterStats, stat)
			break
		}
		start = time.Now()
		st.updateCenters(centers, assign)
		reseedEmpty(sketches, centers, assign, rng)
		stat.Update = time.Since(start)
		res.IterStats = append(res.IterStats, stat)
	}

	res.Busy = st.busy
	res.Assign = assign
	res.Centers = centers
	res.Members = st.members(assign)
	return res, nil
}

// initCenters seeds k centers from distinct random records.
func initCenters(sketches []sketch.Sketch, k int, rng *rand.Rand) []Center {
	perm := rng.Perm(len(sketches))
	centers := make([]Center, k)
	for c := 0; c < k; c++ {
		s := sketches[perm[c]]
		vals := make([][]uint64, len(s))
		for a, v := range s {
			vals[a] = []uint64{v}
		}
		centers[c] = Center{Values: vals}
	}
	return centers
}

// maskPathMaxK bounds the cell→center-bitmask assignment path: masks
// are single uint64 words, so it only exists for K ≤ 64 centers.
const maskPathMaxK = 64

// maxPlanes bounds nearestMask's bit planes: Cluster keeps the cell
// index within int32, so the width, and a match count, is below 2³¹.
const maxPlanes = 31

// clusterState carries the hot-path scratch that persists across
// assign/update rounds of one Cluster call.
type clusterState struct {
	sketches []sketch.Sketch
	k        int
	width    int
	l        int

	// cells is the sketches recoded once per Cluster call: record i's
	// attribute a is cells[i*width+a] = off[a] + the rank of its value
	// among attribute a's distinct values, ascending. dicts[a] lists
	// those values, so cell g of attribute a is the value
	// dicts[a][g-off[a]], and within one attribute cell order is value
	// order. Cells never leave the call.
	cells []uint32
	dicts [][]uint64
	off   []int

	// flat is the flattened center matrix (scan path only): attribute
	// row (c, a) lives at flat[(c*width+a)*l : +l]. Rows shorter than L
	// are padded by repeating the first candidate value, so the match
	// loop has a fixed trip count without a per-row length lookup.
	flat []uint64

	// masks[g] is the bitmask of centers listing cell g's value among
	// their L candidates (mask path only); maskSet lists the non-zero
	// entries, so the next load clears just those. Bit g of listed is
	// set when masks[g] is non-zero: at most K·L cells of an attribute
	// are, and the bitset is 64 times smaller than masks, so testing it
	// first keeps most lookups in cache.
	masks   []uint64
	maskSet []uint32
	listed  []uint64
	useMask bool
	// planes is the number of bit planes nearestMask counts matches in:
	// enough for a count of width.
	planes int

	// byStratum lists the record indices grouped by stratum, stratum c's
	// at byStratum[first[c]:first[c+1]]; rebuilt before each update.
	// first has k+2 entries (see groupByStratum).
	byStratum []int32
	first     []int32
	// dirty marks strata whose membership changed since their center
	// was last rebuilt.
	dirty []bool

	// ws holds one entry per worker; every round runs one parallel.For
	// task per entry. busy sums the busy time those calls report.
	ws   []worker
	busy time.Duration
}

// worker is one worker's share of every round and its scratch, reused
// across rounds. recs is its record range (assign and shift rounds),
// attrs its attribute range (recode and update rounds). moved and cost
// are its last assign round's results, and dirty[c] marks stratum c as
// gaining or losing a record (cleared by the update that reads it). cnt
// counts the cells of its attribute range and touched lists the cells it
// met, both indexed from off[attrs[0]]; next[j] is the next free slot of
// attribute attrs[0]+j in touched, and top[j*L:] holds its top-L
// selection.
type worker struct {
	recs, attrs [2]int
	moved       int
	cost        int64
	dirty       []bool
	cnt         []int32
	touched     []uint32
	top         []valCount
	next        []int
}

func newClusterState(sketches []sketch.Sketch, k, width, l, workers int) *clusterState {
	n := len(sketches)
	st := &clusterState{
		sketches:  sketches,
		k:         k,
		width:     width,
		l:         l,
		cells:     make([]uint32, n*width),
		dicts:     make([][]uint64, width),
		off:       make([]int, width+1),
		useMask:   k <= maskPathMaxK,
		planes:    bits.Len(uint(width)),
		byStratum: make([]int32, n),
		first:     make([]int32, k+2),
		dirty:     make([]bool, k),
		ws:        make([]worker, workers),
	}
	chunk := (n + workers - 1) / workers
	for i := range st.ws {
		st.ws[i] = worker{
			recs:  [2]int{min(i*chunk, n), min((i+1)*chunk, n)},
			attrs: [2]int{i * width / workers, (i + 1) * width / workers},
			dirty: make([]bool, k),
		}
	}
	st.busy += parallel.For(workers, workers, func(lo, hi int) {
		for _, w := range st.ws[lo:hi] {
			st.recodeAttrs(w.attrs[0], w.attrs[1])
		}
	})
	for a, d := range st.dicts {
		st.off[a+1] = st.off[a] + len(d)
	}
	st.busy += parallel.For(workers, workers, func(lo, hi int) {
		for _, w := range st.ws[lo:hi] {
			st.shiftCells(w.recs[0], w.recs[1])
		}
	})
	if st.useMask {
		st.masks = make([]uint64, st.off[width])
		st.listed = make([]uint64, (st.off[width]+63)/64)
	} else {
		st.flat = make([]uint64, k*width*l)
	}
	for i := range st.ws {
		w := &st.ws[i]
		lo, hi := w.attrs[0], w.attrs[1]
		w.cnt = make([]int32, st.off[hi]-st.off[lo])
		w.touched = make([]uint32, st.off[hi]-st.off[lo])
		w.top = make([]valCount, (hi-lo)*l)
		w.next = make([]int, hi-lo)
	}
	return st
}

// recodeHashMul is the Fibonacci-hashing multiplier of the recode
// table: the top bits of v·recodeHashMul depend on every bit of v.
const recodeHashMul = 0x9E3779B97F4A7C15

// recodeTable is one worker's scratch for recoding an attribute: an
// open-addressed table of the distinct values met so far.
type recodeTable struct {
	// slots holds 1 + the index in seen of the value hashed there, 0
	// for an empty slot. Its length is a power of two kept above twice
	// len(seen), so probes stay short and always end; it starts at
	// 2^recodeInitBits and doubles when half full, so it is sized by
	// the distinct values, not the records.
	slots []int32
	shift uint
	seen  []uint64
	// rank[j] is the rank of seen[j] among the attribute's distinct
	// values.
	rank []uint32
}

// recodeInitBits sizes a fresh recode table: 1,024 slots.
const recodeInitBits = 10

// resize replaces the slots with 2^b empty ones and reinserts seen.
func (t *recodeTable) resize(b int) {
	t.slots = make([]int32, 1<<b)
	t.shift = uint(64 - b)
	for j, v := range t.seen {
		t.slots[t.find(v)] = int32(j + 1)
	}
}

// find returns the slot holding v, or the empty slot where v belongs.
func (t *recodeTable) find(v uint64) int {
	mask := len(t.slots) - 1
	for h := int(v * recodeHashMul >> t.shift); ; h = (h + 1) & mask {
		if s := t.slots[h]; s == 0 || t.seen[s-1] == v {
			return h
		}
	}
}

// add returns the index in seen of v, appending v if it is new.
func (t *recodeTable) add(v uint64) uint32 {
	h := t.find(v)
	if s := t.slots[h]; s != 0 {
		return uint32(s - 1)
	}
	t.seen = append(t.seen, v)
	t.slots[h] = int32(len(t.seen))
	if 2*len(t.seen) > len(t.slots) {
		t.resize(bits.Len(uint(len(t.slots))))
	}
	return uint32(len(t.seen) - 1)
}

// recodeAttrs recodes attributes [lo, hi): it stores each one's sorted
// distinct values in dicts and writes every record's rank among them
// into its cells — first the value's first-seen index, then, once the
// values are sorted, its rank — which shiftRound then moves to the
// attribute's offset. Ranks follow value order because dicts is sorted.
func (st *clusterState) recodeAttrs(lo, hi int) {
	if lo == hi {
		return
	}
	t := &recodeTable{}
	t.resize(recodeInitBits)
	w := st.width
	for a := lo; a < hi; a++ {
		clear(t.slots)
		t.seen = t.seen[:0]
		for i, s := range st.sketches {
			st.cells[i*w+a] = t.add(s[a])
		}
		dict := slices.Clone(t.seen)
		slices.Sort(dict)
		t.rank = slices.Grow(t.rank[:0], len(dict))[:len(dict)]
		for r, v := range dict {
			t.rank[t.slots[t.find(v)]-1] = uint32(r)
		}
		st.dicts[a] = dict
		for i := a; i < len(st.cells); i += w {
			st.cells[i] = t.rank[st.cells[i]]
		}
	}
}

// shiftCells adds each attribute's offset to the cells of records
// [lo, hi), turning per-attribute ranks into cells.
func (st *clusterState) shiftCells(lo, hi int) {
	for i := lo; i < hi; i++ {
		row := st.cells[i*st.width : (i+1)*st.width]
		for a := range row {
			row[a] += uint32(st.off[a])
		}
	}
}

// loadCenters flattens the centers into the matrix on the scan path,
// or rebuilds the cell→center-bitmask table on the mask path, before
// an assignment round. Every attribute row of a live center is non-empty by
// construction: initCenters and reseedEmpty store one value per
// attribute, and updateCenters rebuilds a stratum only from a non-empty
// member multiset or leaves it for reseedEmpty. Every center value is
// some record's, so it has a cell.
func (st *clusterState) loadCenters(centers []Center) {
	if !st.useMask {
		flattenCenters(st.flat, centers, st.width, st.l)
		return
	}
	for _, g := range st.maskSet {
		st.masks[g] = 0
		st.listed[g>>6] = 0
	}
	st.maskSet = st.maskSet[:0]
	for c := range centers {
		bit := uint64(1) << uint(c)
		for a, vs := range centers[c].Values {
			for _, v := range vs {
				j, ok := slices.BinarySearch(st.dicts[a], v)
				if !ok {
					panic("strata: center value absent from the sketches")
				}
				g := st.off[a] + j
				if st.masks[g] == 0 {
					st.maskSet = append(st.maskSet, uint32(g))
					st.listed[g>>6] |= 1 << (g & 63)
				}
				st.masks[g] |= bit
			}
		}
	}
}

// assignAll assigns every record to its nearest center, one task per
// worker, reporting whether any assignment changed, the total mismatch
// cost, and how many records moved. Ties in distance break toward the
// lowest center index (centers are scanned in ascending order and only
// a strictly smaller distance displaces the incumbent).
func (st *clusterState) assignAll(centers []Center, assign []int) (changed bool, cost int64, moved int) {
	st.loadCenters(centers)
	st.busy += parallel.For(len(st.ws), len(st.ws), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			st.assignRecords(&st.ws[i], assign)
		}
	})
	for _, w := range st.ws {
		cost += w.cost
		moved += w.moved
	}
	return moved > 0, cost, moved
}

// assignRecords assigns worker w's record range to nearest centers.
func (st *clusterState) assignRecords(w *worker, assign []int) {
	moved, dirty := 0, w.dirty
	var cost int64
	for i := w.recs[0]; i < w.recs[1]; i++ {
		var best, bestDist int
		if st.useMask {
			best, bestDist = st.nearestMask(st.cells[i*st.width : (i+1)*st.width])
		} else {
			best, bestDist = nearestFlat(st.flat, st.k, st.width, st.l, st.sketches[i])
		}
		if old := assign[i]; old != best {
			if old >= 0 {
				dirty[old] = true
			}
			dirty[best] = true
			assign[i] = best
			moved++
		}
		cost += int64(bestDist)
	}
	w.moved, w.cost = moved, cost
}

// flattenCenters writes the centers into the [k×width×l] matrix used
// by the scan path: attribute row (c, a) lives at flat[(c*width+a)*l :
// +l], short rows padded by repeating the first candidate value so the
// match loop has a fixed trip count without a per-row length lookup.
func flattenCenters(flat []uint64, centers []Center, width, l int) {
	for c := range centers {
		vals := centers[c].Values
		base := c * width * l
		for a := 0; a < width; a++ {
			vs := vals[a]
			if len(vs) == 0 {
				panic("strata: assigning against a center attribute with no candidate values")
			}
			row := flat[base+a*l : base+(a+1)*l]
			for j := range row {
				if j < len(vs) {
					row[j] = vs[j]
				} else {
					row[j] = vs[0]
				}
			}
		}
	}
}

// nearestFlat scans a flattened [k×width×l] center matrix (see
// flattenCenters) for the center nearest to s under attribute-mismatch
// distance, abandoning a center as soon as its partial mismatch count
// can no longer beat the incumbent's (it only grows). Ties break toward
// the lowest center index: centers are scanned ascending and only a
// strictly smaller distance displaces the incumbent. Shared by the
// clustering hot path and the online DriftTracker, which must assign
// ingested records exactly like the stratifier would.
func nearestFlat(flat []uint64, k, width, l int, s sketch.Sketch) (best, bestDist int) {
	stride := width * l
	bestDist = width + 1
	for c := 0; c < k; c++ {
		row := flat[c*stride : (c+1)*stride]
		d := 0
		for a := 0; a < width; a++ {
			v := s[a]
			match := false
			for j := a * l; j < (a+1)*l; j++ {
				if row[j] == v {
					match = true
					break
				}
			}
			if !match {
				d++
				if d >= bestDist {
					break
				}
			}
		}
		if d < bestDist {
			best, bestDist = c, d
		}
	}
	return best, bestDist
}

// nearestMask finds the nearest center of the record whose cells are
// row through the cell→center-bitmask table. It counts the matches of
// every center at once in bit-sliced counters: planes[j] holds bit j of
// each center's count, and adding an attribute's mask is a ripple
// carry across the planes — a fixed handful of word operations however
// many centers match. The most-matching center is then found from the
// top plane down, keeping the centers with that bit set whenever any
// has it; the lowest one left is the lowest index among the maxima, so
// ties break like the scan path, and maximizing matches is minimizing
// mismatch distance.
func (st *clusterState) nearestMask(row []uint32) (best, bestDist int) {
	var buf [maxPlanes]uint64
	planes := buf[:st.planes]
	for _, g := range row {
		if st.listed[g>>6]&(1<<(g&63)) == 0 {
			continue
		}
		carry := st.masks[g]
		for j := range planes {
			planes[j], carry = planes[j]^carry, planes[j]&carry
		}
	}
	cand := uint64(1)<<uint(st.k) - 1
	for j := len(planes) - 1; j >= 0; j-- {
		if t := cand & planes[j]; t != 0 {
			cand = t
		}
	}
	best = bits.TrailingZeros64(cand)
	count := 0
	for j, p := range planes {
		count |= int(p>>uint(best)&1) << j
	}
	return best, st.width - count
}

// updateCenters rebuilds the centers of strata whose membership changed
// this round by recounting their members' cells. The first round moves
// every record, so it rebuilds every stratum that has members; a
// stratum left empty keeps its center for reseedEmpty to replace. A
// stratum whose membership did not change keeps its
// Center unchanged — its counts are identical, and top-L selection is a
// pure deterministic function of the counts (count desc, value asc), so
// the rebuild would produce the same values.
//
// A center row depends on one attribute's cells only, so the work
// splits by attribute: each worker counts, and rebuilds the dirty
// rows of, its own contiguous attribute range. The centers are the same
// at every worker count.
func (st *clusterState) updateCenters(centers []Center, assign []int) {
	for _, w := range st.ws {
		for c, d := range w.dirty {
			st.dirty[c] = st.dirty[c] || d
		}
		clear(w.dirty)
	}
	st.groupByStratum(assign)
	for c, dirty := range st.dirty {
		if dirty {
			centers[c] = blankCenter(st.width, st.l)
		}
	}
	st.busy += parallel.For(len(st.ws), len(st.ws), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			st.updateAttrs(&st.ws[i], centers)
		}
	})
	clear(st.dirty)
}

// groupByStratum counting-sorts the record indices by stratum into
// byStratum, ascending within each stratum. Stratum c's count goes to
// first[c+2], so after the prefix sum first[c+1] is the slot of c's
// next member; filling advances it to the end of c's range — the start
// of c+1's, which leaves first[c] the start of stratum c.
func (st *clusterState) groupByStratum(assign []int) {
	clear(st.first)
	for _, a := range assign {
		st.first[a+2]++
	}
	for c := 2; c < len(st.first); c++ {
		st.first[c] += st.first[c-1]
	}
	for i, a := range assign {
		st.byStratum[st.first[a+1]] = int32(i)
		st.first[a+1]++
	}
}

// members returns the record indices of each stratum, ascending, carved
// from one backing array with capacity capped at length so that an
// append to one stratum never writes into the next; an empty stratum
// stays nil.
func (st *clusterState) members(assign []int) [][]int {
	st.groupByStratum(assign)
	backing := make([]int, len(assign))
	for i, r := range st.byStratum {
		backing[i] = int(r)
	}
	out := make([][]int, st.k)
	for c := range out {
		if lo, hi := st.first[c], st.first[c+1]; lo < hi {
			out[c] = backing[lo:hi:hi]
		}
	}
	return out
}

// updateAttrs is updateCenters' work on worker w's attributes [lo, hi).
// For each dirty stratum it counts its members' cells into cnt, noting
// each cell in touched the first time it is counted. Both are indexed
// from off[lo], and attribute a has at most off[a+1]-off[a] distinct
// cells, so its touched list fits in the slots of its own cells; cnt is
// all zero between strata. It then offers
// every touched cell, with its count, to its attribute's top-L, zeroing
// the count, and writes the selected values into the stratum's (blank)
// center rows.
func (st *clusterState) updateAttrs(w *worker, centers []Center) {
	lo, hi := w.attrs[0], w.attrs[1]
	if lo == hi {
		return
	}
	span, base, l := hi-lo, uint32(st.off[lo]), st.l
	cnt, touched, top, next := w.cnt, w.touched, w.top, w.next
	for c, dirty := range st.dirty {
		if !dirty {
			continue
		}
		members := st.byStratum[st.first[c]:st.first[c+1]]
		for j := range next {
			next[j] = st.off[lo+j] - st.off[lo]
		}
		for _, i := range members {
			for j, g := range st.cells[int(i)*st.width+lo : int(i)*st.width+hi] {
				if cnt[g-base]++; cnt[g-base] == 1 {
					touched[next[j]] = g
					next[j]++
				}
			}
		}
		vals := centers[c].Values
		for j := range span {
			sel, n := top[j*l:(j+1)*l], 0
			for _, g := range touched[st.off[lo+j]-st.off[lo] : next[j]] {
				n = insertTopL(sel, n, valCount{v: uint64(g), n: int(cnt[g-base])})
				cnt[g-base] = 0
			}
			a := lo + j
			for _, e := range sel[:n] {
				vals[a] = append(vals[a], st.dicts[a][int(e.v)-st.off[a]])
			}
		}
	}
}

// valCount is one (value, frequency) entry of a top-L selection. In
// the center update v holds a cell, whose order within one attribute is
// its value's.
type valCount struct {
	v uint64
	n int
}

// ranksAbove is the strict total order of top-L selection: count desc,
// value asc. The entries one selection compares hold distinct values,
// so two never tie completely and the top-L list is unique whatever
// order the entries are offered in.
func (e valCount) ranksAbove(o valCount) bool {
	if e.n != o.n {
		return e.n > o.n
	}
	return e.v < o.v
}

// insertTopL offers e to the selection top[:n], kept sorted by
// ranksAbove and at most len(top) long, and returns its new length.
func insertTopL(top []valCount, n int, e valCount) int {
	pos := n
	for pos > 0 && e.ranksAbove(top[pos-1]) {
		pos--
	}
	if pos >= len(top) {
		return n
	}
	if n < len(top) {
		n++
	}
	copy(top[pos+1:n], top[pos:n-1])
	top[pos] = e
	return n
}

// reseedEmpty replaces the center of any empty cluster with a random
// record's sketch, so K never silently collapses.
func reseedEmpty(sketches []sketch.Sketch, centers []Center, assign []int, rng *rand.Rand) {
	k := len(centers)
	size := make([]int, k)
	for _, a := range assign {
		if a >= 0 {
			size[a]++
		}
	}
	for c := 0; c < k; c++ {
		if size[c] > 0 && len(centers[c].Values[0]) > 0 {
			continue
		}
		i := rng.Intn(len(sketches))
		vals := make([][]uint64, len(sketches[i]))
		for a, v := range sketches[i] {
			vals[a] = []uint64{v}
		}
		centers[c] = Center{Values: vals}
	}
}
