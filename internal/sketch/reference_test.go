package sketch

import (
	"fmt"
	"math/bits"
)

// The definitional forms the tests compare the fused hot path with:
// Apply is one permutation at one item, mulMod / addMod are the
// two-step modular chain applyPerm replaced, and referenceHash2 is
// FNV-1a byte by byte. No non-test code calls
// them: Hasher.SketchInto runs applyPerm over reduced items directly.
// Agreement is the MinHash estimate itself, which the tests hold
// against ExactJaccard; the stratifier compares sketches coordinate by
// coordinate against centers and never asks for it.

// Apply evaluates the permutation at x. x is first folded into the
// field so that arbitrary 64-bit items are accepted.
func (lp LinearPermutation) Apply(x Item) uint64 {
	return applyPerm(lp.A, lp.B, reduce(x))
}

// mulMod returns a·b mod 2^61−1 using a 128-bit intermediate product.
func mulMod(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a·b = hi·2^64 + lo. With p = 2^61−1, 2^61 ≡ 1, so
	// 2^64 ≡ 8 (mod p) and the product folds in two steps.
	r := (lo & MersennePrime61) + (lo >> 61) + (hi<<3)&MersennePrime61 + (hi >> 58)
	r = (r & MersennePrime61) + (r >> 61)
	if r >= MersennePrime61 {
		r -= MersennePrime61
	}
	return r
}

// referenceHash2 is FNV-1a over the eight little-endian bytes of a,
// then of b, one byte at a time: the definition Hash2 folds a zero top
// half of.
func referenceHash2(a, b uint64) Item {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= (a >> (8 * i)) & 0xff
		h *= prime
	}
	for i := 0; i < 8; i++ {
		h ^= (b >> (8 * i)) & 0xff
		h *= prime
	}
	return h
}

// addMod returns a+b mod 2^61−1 for a, b already < 2^61−1.
func addMod(a, b uint64) uint64 {
	s := a + b
	if s >= MersennePrime61 {
		s -= MersennePrime61
	}
	return s
}

// Agreement returns the fraction of coordinates at which the two
// sketches are equal — the MinHash estimate of Jaccard similarity.
// It panics if the sketches have different lengths, which indicates
// they came from different Hashers and comparing them is a bug.
func (s Sketch) Agreement(t Sketch) float64 {
	if len(s) != len(t) {
		panic(fmt.Sprintf("sketch: comparing sketches of different widths %d and %d", len(s), len(t)))
	}
	if len(s) == 0 {
		return 0
	}
	eq := 0
	for i := range s {
		if s[i] == t[i] {
			eq++
		}
	}
	return float64(eq) / float64(len(s))
}
