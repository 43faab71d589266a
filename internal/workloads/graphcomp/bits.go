// Package graphcomp implements webgraph-style adjacency-list
// compression after Boldi & Vigna (WWW 2004), the compression workload
// of paper §V-C2: γ-coded headers and copy-block runs, reference
// compression against a sliding window of previously encoded lists,
// and residual gaps in webgraph's default ζ₃ code. Compression quality rises sharply when similar
// adjacency lists (same-host vertices) are stored together — exactly
// what the framework's similar-together partitioning produces.
package graphcomp

import "math/bits"

// BitWriter accumulates a bit stream, most significant bit first.
type BitWriter struct {
	buf  []byte
	nbit uint8 // bits used in the last byte (0 means last byte full/absent)
}

// NewBitWriter creates an empty writer.
func NewBitWriter() *BitWriter { return &BitWriter{} }

// Len returns the number of bits written.
func (w *BitWriter) Len() int {
	if w.nbit == 0 {
		return 8 * len(w.buf)
	}
	return 8*(len(w.buf)-1) + int(w.nbit)
}

// WriteBit appends one bit.
func (w *BitWriter) WriteBit(b uint) {
	if w.nbit == 0 {
		w.buf = append(w.buf, 0)
		w.nbit = 0
	}
	if w.nbit == 8 {
		w.buf = append(w.buf, 0)
		w.nbit = 0
	}
	if b != 0 {
		w.buf[len(w.buf)-1] |= 1 << (7 - w.nbit)
	}
	w.nbit++
}

// WriteBits appends the low n bits of v, most significant first.
func (w *BitWriter) WriteBits(v uint64, n int) {
	for i := n - 1; i >= 0; i-- {
		w.WriteBit(uint(v>>uint(i)) & 1)
	}
}

// WriteUnary appends v zeros followed by a one.
func (w *BitWriter) WriteUnary(v uint64) {
	for i := uint64(0); i < v; i++ {
		w.WriteBit(0)
	}
	w.WriteBit(1)
}

// WriteGamma appends the Elias γ code of v ≥ 1: unary length prefix
// followed by the binary digits below the leading one.
func (w *BitWriter) WriteGamma(v uint64) {
	if v == 0 {
		panic("graphcomp: γ code domain is v ≥ 1")
	}
	l := uint64(bits.Len64(v)) - 1
	w.WriteUnary(l)
	w.WriteBits(v, int(l))
}

// WriteGamma0 appends γ(v+1), extending the code to v ≥ 0.
func (w *BitWriter) WriteGamma0(v uint64) { w.WriteGamma(v + 1) }

// Bytes returns the accumulated stream, zero-padded to a byte boundary.
func (w *BitWriter) Bytes() []byte {
	out := make([]byte, len(w.buf))
	copy(out, w.buf)
	return out
}

// ZigZag maps a signed delta to an unsigned code (0,−1,1,−2,2 → 0,1,2,3,4).
func ZigZag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }
