// Package lz77 is a from-scratch sliding-window LZ77 compressor (Ziv &
// Lempel, 1977/78 family) with hash-chain match finding — the second
// compression workload of paper §V-C2 (Tables II and III). The token
// stream is byte-aligned: literal runs and (length, distance) matches
// framed with uvarints, so the stream is self-contained and
// deterministic. The decompressor, which validates every reference,
// is the tests' round-trip oracle (decompress_test.go).
//
// Cost counts the work the match finder is defined to do, not the work
// one implementation of it performs: one per position the encoder stops
// at (a literal or the start of a match), one per chain probe and one
// per byte a match covers. It does not count bytes compared, so
// rejecting a candidate on one byte, or comparing eight bytes at a
// time, leaves it unchanged. reference_test.go keeps the byte-at-a-time
// matcher that Compress must agree with on Data, Cost and Matches.
package lz77

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Config controls the compressor. Every program compresses with its
// zero value, the package defaults; the fields are the package's
// tests' to sweep.
type Config struct {
	// windowSize is the back-reference window. 0 means DefaultWindow.
	windowSize int
	// maxChain bounds hash-chain probes per position. 0 means
	// DefaultMaxChain. Higher finds better matches and costs more
	// work: every probe adds one to Cost, whether or not its bytes
	// are compared.
	maxChain int
}

// Tunables.
const (
	DefaultWindow   = 32 << 10
	DefaultMaxChain = 32
	minMatch        = 4
	maxMatch        = 1 << 16
	hashBits        = 16
)

// Encoded is a compressed buffer plus its deterministic work cost.
type Encoded struct {
	// Data is the token stream.
	Data []byte
	// RawLen is the original length.
	RawLen int
	// Cost is the abstract work metric: positions stopped at, chain
	// probes and bytes matched, not bytes compared.
	Cost float64
	// Matches counts emitted back-references.
	Matches int
}

// hash4 mixes 4 bytes into a hashBits-bit table index.
func hash4(b []byte) uint32 {
	v := binary.LittleEndian.Uint32(b)
	return (v * 2654435761) >> (32 - hashBits)
}

// Compress encodes data with LZ77.
//
// The matcher is zlib's. head holds the latest position of each hash;
// prev, a ring of the next power of two above the window (or above the
// input, if that is shorter), links a position to the previous one with
// the same hash. A slot is overwritten only by the position a full ring
// later, so every link read inside the window is the one written for
// it. A candidate whose byte at the best length so far differs cannot
// beat that length and is not compared; it still counts as a probe.
func Compress(data []byte, cfg Config) (*Encoded, error) {
	window := cfg.windowSize
	if window == 0 {
		window = DefaultWindow
	}
	if window < minMatch {
		return nil, fmt.Errorf("lz77: window %d below minimum match %d", window, minMatch)
	}
	maxChain := cfg.maxChain
	if maxChain == 0 {
		maxChain = DefaultMaxChain
	}
	if maxChain < 1 {
		return nil, fmt.Errorf("lz77: max chain %d", maxChain)
	}
	head := make([]int32, 1<<hashBits)
	for i := range head {
		head[i] = -1
	}
	prev := make([]int32, 1<<bits.Len(uint(min(window, len(data)))))
	mask := len(prev) - 1
	// Serialized records compress only about × 1.2, so a stream sized
	// to the input is usually its only allocation.
	out := make([]byte, 0, len(data))
	cost, matches := 0, 0
	lits := 0                    // start of the pending literal run
	last := len(data) - minMatch // last position with four bytes to hash
	for pos := 0; pos < len(data); {
		cost++
		bestLen, bestDist := 0, 0
		if pos <= last {
			limit := min(len(data)-pos, maxMatch)
			cand := head[hash4(data[pos:])]
			probes := 0
			for ; cand >= 0 && probes < maxChain && pos-int(cand) <= window; probes++ {
				c := int(cand)
				if bestLen < limit && data[c+bestLen] == data[pos+bestLen] {
					if l := matchLen(data[c:], data[pos:pos+limit]); l > bestLen {
						bestLen, bestDist = l, pos-c
					}
				}
				cand = prev[c&mask]
			}
			cost += probes
		}
		next := pos + 1
		if bestLen >= minMatch {
			out = appendLiterals(out, data[lits:pos])
			out = append(out, 0x01)
			out = binary.AppendUvarint(out, uint64(bestLen))
			out = binary.AppendUvarint(out, uint64(bestDist))
			matches++
			cost += bestLen
			next = pos + bestLen
			lits = next
		}
		for p := pos; p < min(next, last+1); p++ {
			h := hash4(data[p:])
			prev[p&mask] = head[h]
			head[h] = int32(p)
		}
		pos = next
	}
	out = appendLiterals(out, data[lits:])
	return &Encoded{Data: out, RawLen: len(data), Cost: float64(cost), Matches: matches}, nil
}

// appendLiterals frames a literal run, if there is one.
func appendLiterals(out, lit []byte) []byte {
	if len(lit) == 0 {
		return out
	}
	out = append(out, 0x00)
	out = binary.AppendUvarint(out, uint64(len(lit)))
	return append(out, lit...)
}

// matchLen returns the length of the common prefix of a and b, where
// len(a) >= len(b), eight bytes at a time: the lowest set bit of the
// XOR of two little-endian words lies in their first differing byte.
func matchLen(a, b []byte) int {
	n := 0
	for ; n+8 <= len(b); n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}
