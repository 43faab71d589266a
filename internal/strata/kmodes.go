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
// implementation is organized around three invariant-preserving
// optimizations — all bit-exact with the naive formulation, which the
// tests keep as a reference implementation:
//
//   - Assignment reads centers from a flattened [K×width×L]uint64
//     matrix (short attribute rows padded by repeating the first
//     candidate) and abandons a center as soon as its running mismatch
//     count reaches the best distance so far. For moderate K a
//     per-attribute value→center-bitmask index replaces the scan
//     entirely.
//   - Workers persist across iterations: one goroutine per worker with
//     per-round channel barriers, reusing per-worker scratch (moved
//     lists, match counters) instead of respawning goroutines and
//     reallocating result slices every round.
//   - Center updates are incremental: per-(stratum, attribute)
//     frequency counters persist across iterations and only the
//     records that changed stratum this round are applied as deltas;
//     top-L is recomputed only for strata whose membership changed.
//     The same workers run the update, each on its own attribute range.
package strata

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"time"

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
	k := cfg.K
	if k > n {
		k = n
	}
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = DefaultMaxIter
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	centers := initCenters(sketches, k, rng)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}

	st := newClusterState(sketches, k, width, cfg.L, workers)
	defer st.close()

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

	for _, d := range st.pool.busy {
		res.Busy += d
	}
	res.Assign = assign
	res.Centers = centers
	res.Members = make([][]int, k)
	for i, a := range assign {
		res.Members[a] = append(res.Members[a], i)
	}
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

// maskPathMaxK bounds the value→center-bitmask assignment path: masks
// are single uint64 words, so it only exists for K ≤ 64 centers.
const maskPathMaxK = 64

// maskPathMinK is the K below which the flattened scan with early exit
// beats the per-attribute hash lookups of the mask path.
const maskPathMinK = 8

// clusterState carries the hot-path scratch that persists across
// assign/update rounds of one Cluster call.
type clusterState struct {
	sketches []sketch.Sketch
	k        int
	width    int
	l        int

	// flat is the flattened center matrix: attribute row (c, a) lives
	// at flat[(c*width+a)*l : +l]. Rows shorter than L are padded by
	// repeating the first candidate value, so the match loop has a
	// fixed trip count without a per-row length lookup.
	flat []uint64

	// masks[a] maps an attribute-a value to the bitmask of centers
	// listing it among their L candidates (mask path only).
	masks   []map[uint64]uint64
	useMask bool

	// counters holds the per-(stratum, attribute) value frequencies of
	// current members. Maintained incrementally across rounds.
	counters *freqCounters
	// dirty marks strata whose membership changed since their center
	// was last rebuilt.
	dirty []bool
	// fresh is true until the first updateCenters call, which builds
	// the counters from scratch.
	fresh bool

	pool *assignPool
}

func newClusterState(sketches []sketch.Sketch, k, width, l, workers int) *clusterState {
	st := &clusterState{
		sketches: sketches,
		k:        k,
		width:    width,
		l:        l,
		flat:     make([]uint64, k*width*l),
		useMask:  k >= maskPathMinK && k <= maskPathMaxK,
		counters: newFreqCounters(k, width),
		dirty:    make([]bool, k),
		fresh:    true,
	}
	if st.useMask {
		st.masks = make([]map[uint64]uint64, width)
		for a := range st.masks {
			st.masks[a] = make(map[uint64]uint64, k*l)
		}
	}
	st.pool = newAssignPool(st, len(sketches), workers)
	return st
}

func (st *clusterState) close() { st.pool.close() }

// loadCenters flattens the centers into the matrix (and rebuilds the
// value→center-bitmask index on the mask path) before an assignment
// round. Every attribute row of a live center is non-empty by
// construction: initCenters and reseedEmpty store one value per
// attribute, and updateCenters rebuilds a stratum only from a non-empty
// member multiset or leaves it for reseedEmpty.
func (st *clusterState) loadCenters(centers []Center) {
	flattenCenters(st.flat, centers, st.width, st.l)
	if !st.useMask {
		return
	}
	for a := range st.masks {
		clear(st.masks[a])
	}
	for c := range centers {
		bit := uint64(1) << uint(c)
		for a, vs := range centers[c].Values {
			m := st.masks[a]
			for _, v := range vs {
				m[v] |= bit
			}
		}
	}
}

// assignAll assigns every record to its nearest center using the
// persistent worker pool, reporting whether any assignment changed, the
// total mismatch cost, and how many records moved. Ties in distance
// break toward the lowest center index (centers are scanned in
// ascending order and only a strictly smaller distance displaces the
// incumbent).
func (st *clusterState) assignAll(centers []Center, assign []int) (changed bool, cost int64, moved int) {
	st.loadCenters(centers)
	p := st.pool
	p.assign = assign
	p.run(assignRound)
	for w := 0; w < p.workers; w++ {
		cost += p.cost[w]
		moved += len(p.moved[w])
	}
	return moved > 0, cost, moved
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

// nearestScan finds the nearest center by scanning the flattened
// matrix, abandoning a center as soon as its partial mismatch count d
// can no longer beat bestDist (d only grows, and a tie keeps the
// incumbent lower index).
func (st *clusterState) nearestScan(s sketch.Sketch) (best, bestDist int) {
	return nearestFlat(st.flat, st.k, st.width, st.l, s)
}

// nearestFlat scans a flattened [k×width×l] center matrix (see
// flattenCenters) for the center nearest to s under attribute-mismatch
// distance. Ties break toward the lowest center index: centers are
// scanned ascending and only a strictly smaller distance displaces the
// incumbent. Shared by the clustering hot path and the online
// DriftTracker, which must assign ingested records exactly like the
// stratifier would.
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

// nearestMask finds the nearest center through the per-attribute
// value→center-bitmask index: each attribute contributes one hash
// lookup plus one counter increment per matching center, so the cost is
// O(width + matches) instead of O(K·width·L). matchCounts is the
// caller's K-sized scratch. Maximizing matches is minimizing mismatch
// distance; the strict > keeps the lowest center index on ties, exactly
// like the scan path.
func (st *clusterState) nearestMask(s sketch.Sketch, matchCounts []int) (best, bestDist int) {
	for c := range matchCounts {
		matchCounts[c] = 0
	}
	masks := st.masks
	for a, v := range s {
		m := masks[a][v]
		for m != 0 {
			matchCounts[bits.TrailingZeros64(m)]++
			m &= m - 1
		}
	}
	best, bestCount := 0, matchCounts[0]
	for c := 1; c < len(matchCounts); c++ {
		if matchCounts[c] > bestCount {
			best, bestCount = c, matchCounts[c]
		}
	}
	return best, st.width - bestCount
}

// updateCenters rebuilds the centers of strata whose membership changed
// this round, from the persistent frequency counters. The first call
// builds the counters from the full assignment; later calls apply only
// the per-record deltas collected by the assignment workers. A stratum
// whose membership did not change keeps its Center unchanged — its
// counters are identical, and top-L selection is a pure deterministic
// function of the counters (count desc, value asc), so the rebuild
// would produce the same values.
//
// The counters are k×width independent maps and a center row depends on
// one of them, so the work splits by attribute: each pool worker folds
// the round's records into, and rebuilds the dirty rows of, its own
// contiguous attribute range. No two workers touch one map, and the
// centers are the same at every worker count.
func (st *clusterState) updateCenters(centers []Center, assign []int) {
	p := st.pool
	if st.fresh {
		for c := range st.dirty {
			st.dirty[c] = true
		}
	} else {
		for w := 0; w < p.workers; w++ {
			for _, m := range p.moved[w] {
				st.dirty[m.old] = true
				st.dirty[assign[m.idx]] = true
			}
		}
	}
	for c, dirty := range st.dirty {
		if dirty {
			centers[c] = blankCenter(st.width, st.l)
		}
	}
	p.centers = centers
	p.run(updateRound)
	st.fresh = false
	clear(st.dirty)
}

// updateAttrs is updateCenters' work on attributes [lo, hi): fold the
// round's records into the counters, then rebuild those rows of every
// dirty stratum's (blank) center.
func (st *clusterState) updateAttrs(lo, hi int, sel *[]valCount) {
	p := st.pool
	if st.fresh {
		for i, s := range st.sketches {
			st.counters.addAttrs(s, p.assign[i], lo, hi)
		}
	} else {
		for w := 0; w < p.workers; w++ {
			for _, m := range p.moved[w] {
				st.counters.moveAttrs(st.sketches[m.idx], m.old, p.assign[m.idx], lo, hi)
			}
		}
	}
	for c, dirty := range st.dirty {
		if dirty {
			st.counters.fillMode(p.centers[c], c, st.l, lo, hi, sel)
		}
	}
}

// movedRec records one reassignment for the incremental center update.
type movedRec struct {
	idx int
	old int
}

// roundKind selects what a pool round does.
type roundKind int

const (
	// assignRound assigns the worker's record range to nearest centers.
	assignRound roundKind = iota
	// updateRound runs updateAttrs on the worker's attribute range.
	updateRound
)

// assignPool is a persistent worker pool for the assign/update loop:
// one goroutine per worker, woken through a per-worker channel each
// round and joined through a WaitGroup, so iterations reuse goroutines
// and per-worker scratch instead of reallocating both every round. The
// coordinator's writes (loadCenters, p.assign, p.centers, dirty marks)
// happen before the channel sends and the workers' result writes happen
// before wg.Done, so rounds are totally ordered without locks.
type assignPool struct {
	st      *clusterState
	workers int
	// ranges[w] is worker w's record range in an assignment round,
	// attrs[w] its attribute range in an update round.
	ranges [][2]int
	attrs  [][2]int
	start  []chan roundKind
	wg     sync.WaitGroup

	assign  []int
	centers []Center

	// Per-worker round results and reusable scratch.
	cost        []int64
	moved       [][]movedRec
	matchCounts [][]int
	sel         [][]valCount
	busy        []time.Duration
}

func newAssignPool(st *clusterState, n, workers int) *assignPool {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	p := &assignPool{
		st:          st,
		workers:     workers,
		ranges:      make([][2]int, workers),
		attrs:       make([][2]int, workers),
		start:       make([]chan roundKind, workers),
		cost:        make([]int64, workers),
		moved:       make([][]movedRec, workers),
		matchCounts: make([][]int, workers),
		sel:         make([][]valCount, workers),
		busy:        make([]time.Duration, workers),
	}
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo > hi {
			lo = hi
		}
		p.ranges[w] = [2]int{lo, hi}
		p.attrs[w] = [2]int{w * st.width / workers, (w + 1) * st.width / workers}
		p.start[w] = make(chan roundKind)
		if st.useMask {
			p.matchCounts[w] = make([]int, st.k)
		}
		go p.serve(w)
	}
	return p
}

// run executes one round of the given kind across all workers and
// blocks until every range is processed.
func (p *assignPool) run(kind roundKind) {
	p.wg.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		p.start[w] <- kind
	}
	p.wg.Wait()
}

// close terminates the worker goroutines.
func (p *assignPool) close() {
	for _, ch := range p.start {
		close(ch)
	}
}

// serve is the long-lived loop of worker w.
func (p *assignPool) serve(w int) {
	for kind := range p.start[w] {
		t0 := time.Now()
		if kind == assignRound {
			p.round(w)
		} else {
			p.st.updateAttrs(p.attrs[w][0], p.attrs[w][1], &p.sel[w])
		}
		p.busy[w] += time.Since(t0)
		p.wg.Done()
	}
}

// round processes worker w's record range for the current round.
func (p *assignPool) round(w int) {
	st := p.st
	lo, hi := p.ranges[w][0], p.ranges[w][1]
	moved := p.moved[w][:0]
	var cost int64
	if st.useMask {
		counts := p.matchCounts[w]
		for i := lo; i < hi; i++ {
			best, bestDist := st.nearestMask(st.sketches[i], counts)
			if p.assign[i] != best {
				moved = append(moved, movedRec{idx: i, old: p.assign[i]})
				p.assign[i] = best
			}
			cost += int64(bestDist)
		}
	} else {
		for i := lo; i < hi; i++ {
			best, bestDist := st.nearestScan(st.sketches[i])
			if p.assign[i] != best {
				moved = append(moved, movedRec{idx: i, old: p.assign[i]})
				p.assign[i] = best
			}
			cost += int64(bestDist)
		}
	}
	p.moved[w] = moved
	p.cost[w] = cost
}

// valCount is one (value, frequency) entry of the top-L selection.
type valCount struct {
	v uint64
	n int
}

// ranksAbove is the strict total order of top-L selection: count desc,
// value asc. Values within one frequency map are distinct, so two
// entries never tie completely and the top-L list is unique regardless
// of map iteration order.
func (e valCount) ranksAbove(o valCount) bool {
	if e.n != o.n {
		return e.n > o.n
	}
	return e.v < o.v
}

// appendTopL appends the up-to-l highest-ranked values of freq to dst
// and returns the extended slice. *sel is caller-owned selection
// scratch, grown once to l and reused, so steady-state selection is
// allocation-free (unlike a sort, which would order all of freq to
// keep l values and allocate a comparator closure per call).
func appendTopL(dst []uint64, freq map[uint64]int, l int, sel *[]valCount) []uint64 {
	s := (*sel)[:0]
	for v, n := range freq {
		e := valCount{v: v, n: n}
		pos := len(s)
		for pos > 0 && e.ranksAbove(s[pos-1]) {
			pos--
		}
		if pos >= l {
			continue
		}
		if len(s) < l {
			s = append(s, valCount{})
		}
		copy(s[pos+1:], s[pos:])
		s[pos] = e
	}
	*sel = s
	for _, e := range s {
		dst = append(dst, e.v)
	}
	return dst
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
