package graphcomp

// ζ_k codes (Boldi & Vigna, "Codes for the World-Wide Web", 2004) are
// the codes the webgraph framework actually uses for residual gaps:
// they are optimal for power-law-distributed values with exponent
// near 1+1/k, where γ wastes bits. This file adds ζ coding plus the
// truncated (minimal) binary code it builds on.

// WriteMinimalBinary writes value m ∈ [0, r) using ⌈log₂ r⌉ or
// ⌈log₂ r⌉−1 bits (truncated binary).
func (w *BitWriter) WriteMinimalBinary(m, r uint64) {
	if r <= 1 {
		return // zero information
	}
	b := bitsLen(r - 1) // ⌈log₂ r⌉
	cut := uint64(1)<<b - r
	if m < cut {
		w.WriteBits(m, int(b)-1)
	} else {
		w.WriteBits(m+cut, int(b))
	}
}

// bitsLen returns the number of bits needed to represent v (≥1 for v>0).
func bitsLen(v uint64) uint {
	n := uint(0)
	for v > 0 {
		n++
		v >>= 1
	}
	if n == 0 {
		n = 1
	}
	return n
}

// WriteZeta writes the ζ_k code of v ≥ 1.
func (w *BitWriter) WriteZeta(k uint, v uint64) {
	if k == 0 {
		panic("graphcomp: ζ shrinking parameter k must be ≥ 1")
	}
	if v == 0 {
		panic("graphcomp: ζ code domain is v ≥ 1")
	}
	// h = ⌊log₂(v)/k⌋.
	h := (bitsLen(v) - 1) / k
	w.WriteUnary(uint64(h))
	lo := uint64(1) << (h * k)
	hi := uint64(1) << ((h + 1) * k)
	w.WriteMinimalBinary(v-lo, hi-lo)
}

// WriteZeta0 extends ζ_k to v ≥ 0.
func (w *BitWriter) WriteZeta0(k uint, v uint64) { w.WriteZeta(k, v+1) }
