// Package lz77 is a from-scratch sliding-window LZ77 compressor (Ziv &
// Lempel, 1977/78 family) with hash-chain match finding — the second
// compression workload of paper §V-C2 (Tables II and III). The token
// stream is byte-aligned: literal runs and (length, distance) matches
// framed with uvarints, so the stream is self-contained and
// deterministic. The decompressor, which validates every reference,
// is the tests' round-trip oracle (decompress_test.go).
package lz77

import (
	"encoding/binary"
	"fmt"
)

// Config controls the compressor.
type Config struct {
	// WindowSize is the back-reference window. 0 means DefaultWindow.
	WindowSize int
	// MaxChain bounds hash-chain probes per position. 0 means
	// DefaultMaxChain. Higher finds better matches, costs more work.
	MaxChain int
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
	// Cost is the abstract work metric (bytes scanned + chain probes).
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
func Compress(data []byte, cfg Config) (*Encoded, error) {
	window := cfg.WindowSize
	if window == 0 {
		window = DefaultWindow
	}
	if window < minMatch {
		return nil, fmt.Errorf("lz77: window %d below minimum match %d", window, minMatch)
	}
	maxChain := cfg.MaxChain
	if maxChain == 0 {
		maxChain = DefaultMaxChain
	}
	if maxChain < 1 {
		return nil, fmt.Errorf("lz77: max chain %d", maxChain)
	}
	enc := &Encoded{RawLen: len(data)}
	var out []byte
	var lit []byte // pending literal run
	head := make([]int32, 1<<hashBits)
	for i := range head {
		head[i] = -1
	}
	prev := make([]int32, len(data))
	flushLits := func() {
		if len(lit) == 0 {
			return
		}
		out = append(out, 0x00)
		out = binary.AppendUvarint(out, uint64(len(lit)))
		out = append(out, lit...)
		lit = lit[:0]
	}
	pos := 0
	insert := func(p int) {
		if p+minMatch <= len(data) {
			h := hash4(data[p:])
			prev[p] = head[h]
			head[h] = int32(p)
		}
	}
	for pos < len(data) {
		enc.Cost++
		bestLen, bestDist := 0, 0
		if pos+minMatch <= len(data) {
			h := hash4(data[pos:])
			cand := head[h]
			probes := 0
			for cand >= 0 && probes < maxChain && pos-int(cand) <= window {
				probes++
				enc.Cost++
				l := matchLen(data, int(cand), pos)
				if l > bestLen {
					bestLen = l
					bestDist = pos - int(cand)
				}
				cand = prev[cand]
			}
		}
		if bestLen >= minMatch {
			flushLits()
			out = append(out, 0x01)
			out = binary.AppendUvarint(out, uint64(bestLen))
			out = binary.AppendUvarint(out, uint64(bestDist))
			enc.Matches++
			for k := 0; k < bestLen; k++ {
				insert(pos + k)
			}
			pos += bestLen
			enc.Cost += float64(bestLen)
		} else {
			lit = append(lit, data[pos])
			insert(pos)
			pos++
		}
	}
	flushLits()
	enc.Data = out
	return enc, nil
}

// matchLen counts matching bytes between positions a (earlier) and b.
func matchLen(data []byte, a, b int) int {
	n := 0
	for b+n < len(data) && data[a+n] == data[b+n] && n < maxMatch {
		n++
	}
	return n
}
