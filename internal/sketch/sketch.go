// Package sketch implements min-wise independent permutation sketches
// (MinHash) over item sets, following Broder et al. (STOC 1998) with the
// cheap "min-wise independent linear permutations" family of Bohman,
// Cooper and Frieze (Electron. J. Combin. 2000) that the paper adopts
// for efficiency (paper §III-C step 2).
//
// A sketch is a fixed-length vector of k minima, one per random linear
// permutation h(x) = (a·x + b) mod p over a large prime field. The
// probability that two sketches agree in one coordinate approximates
// the Jaccard similarity of the underlying sets, so Hamming agreement
// between sketches estimates Jaccard similarity without touching the
// (potentially huge) original sets.
package sketch

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"pareto/internal/parallel"
)

// MersennePrime61 is the field modulus 2^61−1 used by the linear
// permutation family. It is large enough that collisions between
// distinct 61-bit items are impossible and reduction is branch-cheap.
const MersennePrime61 = (1 << 61) - 1

// Item is a universe element. Raw data (words, pivots, neighbor IDs)
// is hashed into Items before sketching; see Hash2.
type Item = uint64

// LinearPermutation is one member of the min-wise independent linear
// family: π(x) = (A·x + B) mod 2^61−1 with A ∈ [1, p−1], B ∈ [0, p−1].
type LinearPermutation struct {
	A uint64
	B uint64
}

// applyPerm returns (a·xr + b) mod 2^61−1 for a, xr < 2^61−1 and
// b < p. With 2^64 ≡ 8 (mod p), a·xr = hi·2^64 + lo folds to
// (lo mod 2^61) + 8·hi + lo>>61. Both factors are below 2^61, so
// hi < 2^58: 8·hi fits in 61 bits with its low three bits clear, and
// lo>>61 < 8 fills them, so one OR forms that sum's top two terms. The
// sum plus b stays below 3·2^61, and one fold and one conditional
// subtract leave it in [0, p). The result is canonical-value-identical
// to the two-step chain reference_test.go keeps as its reference.
func applyPerm(a, b, xr uint64) uint64 {
	hi, lo := bits.Mul64(a, xr)
	t := (lo & MersennePrime61) + (hi<<3 | lo>>61) + b
	r := (t & MersennePrime61) + (t >> 61)
	if r >= MersennePrime61 {
		r -= MersennePrime61
	}
	return r
}

// minPair returns the minima of m0 and m1 with permutations p and q
// over the reduced items xr: one pass over the block serves two
// coordinates, each minimum held in a register.
func minPair(p, q LinearPermutation, m0, m1 uint64, xr []uint64) (uint64, uint64) {
	for _, x := range xr {
		if v := applyPerm(p.A, p.B, x); v < m0 {
			m0 = v
		}
		if v := applyPerm(q.A, q.B, x); v < m1 {
			m1 = v
		}
	}
	return m0, m1
}

// reduce folds an arbitrary 64-bit value into [0, 2^61−1).
func reduce(x uint64) uint64 {
	x = (x >> 61) + (x & MersennePrime61)
	if x >= MersennePrime61 {
		x -= MersennePrime61
	}
	return x
}

// Sketch is the k-dimensional signature of one item set. Sketches are
// the categorical feature vectors consumed by the compositeKModes
// stratifier: coordinate i is the minimum of permutation i over the set.
type Sketch []uint64

// EmptySentinel is the coordinate value produced when sketching an
// empty set: no item exists to take a minimum over. It is outside the
// field [0, 2^61−1) so it can never collide with a real minimum.
const EmptySentinel = ^uint64(0)

// Hasher holds k independent linear permutations and produces sketches.
// A Hasher is immutable after construction and safe for concurrent use.
type Hasher struct {
	perms []LinearPermutation
}

// ErrNoPermutations is returned by NewHasher when k < 1.
var ErrNoPermutations = errors.New("sketch: hasher needs at least one permutation")

// NewHasher creates a Hasher with k permutations drawn deterministically
// from seed. Equal (k, seed) pairs always yield identical Hashers, so
// sketches computed on different cluster nodes are comparable.
func NewHasher(k int, seed int64) (*Hasher, error) {
	if k < 1 {
		return nil, ErrNoPermutations
	}
	rng := rand.New(rand.NewSource(seed))
	perms := make([]LinearPermutation, k)
	for i := range perms {
		perms[i] = LinearPermutation{
			A: 1 + uint64(rng.Int63n(MersennePrime61-1)),
			B: uint64(rng.Int63n(MersennePrime61)),
		}
	}
	return &Hasher{perms: perms}, nil
}

// K returns the sketch width (number of permutations).
func (h *Hasher) K() int { return len(h.perms) }

// Sketch computes the k-minima signature of the given item set.
// The set need not be sorted or deduplicated; duplicates cannot change
// a minimum. An empty set yields a sketch of EmptySentinel coordinates.
func (h *Hasher) Sketch(set []Item) Sketch {
	out := make(Sketch, len(h.perms))
	h.SketchInto(set, out)
	return out
}

// SketchInto computes the signature into dst, which must have length
// K(). It exists so bulk sketching can avoid per-set allocations.
//
// The loop is blocked for the hot path (bulk sketching in the
// distributed ship): items are pre-reduced into a stack buffer once
// per block, then each pair of permutations streams the block with
// both minima in registers instead of re-reading dst per item. Values
// are identical to applying the permutations item by item.
func (h *Hasher) SketchInto(set []Item, dst Sketch) {
	perms := h.perms
	if len(dst) != len(perms) {
		panic(fmt.Sprintf("sketch: SketchInto dst width %d, want %d", len(dst), len(perms)))
	}
	dst = dst[:len(perms)]
	for i := range dst {
		dst[i] = EmptySentinel
	}
	var xbuf [64]uint64
	for base := 0; base < len(set); base += len(xbuf) {
		block := set[base:]
		if len(block) > len(xbuf) {
			block = block[:len(xbuf)]
		}
		for j, x := range block {
			xbuf[j] = reduce(x)
		}
		xr := xbuf[:len(block)]
		for i := 0; i < len(perms); i += 2 {
			j := min(i+1, len(perms)-1) // an odd width's last pairs with itself
			dst[i], dst[j] = minPair(perms[i], perms[j], dst[i], dst[j], xr)
		}
	}
}

// SketchAll computes the sketches of n item sets: items(dst, i)
// appends set i to dst, in any order and with any repeats, as
// pivots.Corpus.AppendItems does. All n sketches share one flat backing
// array (a single allocation instead of n small ones), and each
// parallel chunk appends its sets into one reused buffer. Coordinate
// values are identical to calling Sketch on each set.
//
// The fan-out rides the planner's shared parallel pool: chunked with
// dynamic scheduling (skewed records rebalance) and index-addressed
// outputs, so the sketches are bit-identical at any worker count.
//
// workers ≤ 0 means GOMAXPROCS. items must be safe for concurrent
// calls with distinct buffers (read-only corpora qualify). The second
// result is the summed busy time of the workers.
func (h *Hasher) SketchAll(n int, items func(dst []Item, i int) []Item, workers int) ([]Sketch, time.Duration) {
	k := len(h.perms)
	out := make([]Sketch, n)
	flat := make([]uint64, n*k)
	for i := range out {
		// Full slice expressions keep an append on one sketch from
		// bleeding into its neighbor's coordinates.
		out[i] = flat[i*k : (i+1)*k : (i+1)*k]
	}
	busy := parallel.For(n, workers, func(lo, hi int) {
		var buf []Item
		for i := lo; i < hi; i++ {
			buf = items(buf[:0], i)
			h.SketchInto(buf, out[i])
		}
	})
	return out, busy
}

// ExactJaccard computes |a∩b| / |a∪b| exactly. Inputs need not be
// sorted; duplicates are ignored. Two empty sets have similarity 0.
func ExactJaccard(a, b []Item) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	seen := make(map[Item]bool, len(a))
	for _, x := range a {
		seen[x] = true
	}
	union := len(seen)
	inter := 0
	counted := make(map[Item]bool, len(b))
	for _, x := range b {
		if counted[x] {
			continue
		}
		counted[x] = true
		if seen[x] {
			inter++
		} else {
			union++
		}
	}
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Hash2 maps an ordered pair of 64-bit values (e.g. a graph edge or a
// two-field pivot) into the sketch universe: FNV-1a over the bytes of
// a, then b, so (a,b) and (b,a) differ. A triple is Hash2(Hash2(a, b), c).
func Hash2(a, b uint64) Item {
	return fnvFold(fnvFold(14695981039346656037, a), b)
}

// fnvFold runs x's eight little-endian FNV-1a byte steps on h. A zero
// byte's step is a bare multiply, so a zero top half (a uint32 label)
// takes its four steps as one multiply by prime⁴ mod 2^64.
func fnvFold(h, x uint64) uint64 {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		if i == 4 && x == 0 {
			return h * (prime * prime * prime * prime % (1 << 64))
		}
		h = (h ^ x&0xff) * prime
		x >>= 8
	}
	return h
}
