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
// matcher that a Writer must agree with on the token stream, Cost and
// Matches, however its input is split into writes.
package lz77

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
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
	// rebaseAt bounds the offsets the match tables hold (see Writer).
	// 0 means math.MaxInt32, the most an int32 holds; tests lower it
	// so that a short stream rebases many times.
	rebaseAt int
}

// Tunables.
const (
	DefaultWindow   = 32 << 10
	DefaultMaxChain = 32
	minMatch        = 4
	maxMatch        = 1 << 16
	hashBits        = 16
	// lookahead is what a position needs buffered from it on to be
	// encoded as in the whole input, with a byte to spare: its longest
	// match, and the three bytes after it that hashing the match's last
	// position reads.
	lookahead = maxMatch + minMatch
	// flushAt is how many token bytes a Writer gathers before it
	// writes them.
	flushAt = 32 << 10
)

// Stats describes an encoded stream.
type Stats struct {
	// RawLen counts the bytes written to the encoder, OutLen the token
	// bytes it wrote.
	RawLen, OutLen int
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

// Writer encodes a stream with LZ77 in memory set by the window, not
// by the stream: its token stream, Cost and Matches are the same
// however the stream is split into writes.
//
// The matcher is zlib's. head holds the latest position of each hash;
// prev, a ring of the next power of two above the window, links a
// position to the previous one with the same hash. A slot is
// overwritten only by the position a full ring later, so every link
// read inside the window is the one written for it. A candidate whose
// byte at the best length so far differs cannot beat that length and
// is not compared; it still counts as a probe.
//
// The stream sits in one sliding buffer that keeps the window behind
// the next position to encode. A position is encoded only once the
// buffer holds its lookahead (or at Close), so it sees what it would
// see in the whole input. A literal run the slide drops moves to
// spill. The tables hold positions as int32 offsets from origin, a
// multiple of the ring; when the buffered stream passes rebaseAt
// bytes beyond origin, origin moves up to the window, and links that
// fall below it, out of reach of every later position, become -1.
type Writer struct {
	w                          io.Writer
	window, maxChain, rebaseAt int
	head                       *[1 << hashBits]int32
	prev                       []int32
	origin                     int
	buf                        []byte // the stream from offset base on
	base                       int
	pos                        int // next stream offset to encode
	lits                       int // stream offset of the pending literal run
	spill                      []byte
	out                        []byte // tokens not yet written to w
	raw, outLen, cost, matches int
	err                        error
}

// NewWriter returns an encoder that writes its token stream to w.
func NewWriter(w io.Writer, cfg Config) (*Writer, error) {
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
	// The buffer holds the window and the lookahead twice over, so a
	// slide drops at least as much as it keeps. out has room for
	// flushAt bytes and the tokens of a match after them.
	e := &Writer{w: w, window: window, maxChain: maxChain, rebaseAt: cfg.rebaseAt,
		head: new([1 << hashBits]int32), prev: make([]int32, 1<<bits.Len(uint(window))),
		buf: make([]byte, 0, 2*(window+lookahead)), out: make([]byte, 0, 2*flushAt)}
	if e.rebaseAt == 0 {
		e.rebaseAt = math.MaxInt32
	}
	// After a rebase the buffered stream reaches less than this far
	// beyond origin.
	if reach := cap(e.buf) + window + len(e.prev); e.rebaseAt < reach || e.rebaseAt > math.MaxInt32 {
		return nil, fmt.Errorf("lz77: rebase threshold %d outside [%d, %d]", e.rebaseAt, reach, math.MaxInt32)
	}
	for i := range e.head {
		e.head[i] = -1
	}
	return e, nil
}

// Write implements io.Writer.
func (e *Writer) Write(p []byte) (int, error) {
	n := 0
	for n < len(p) && e.err == nil {
		if len(e.buf) == cap(e.buf) {
			e.parse(e.base + len(e.buf) - lookahead + 1)
			e.slide()
		}
		k := copy(e.buf[len(e.buf):cap(e.buf)], p[n:])
		e.buf = e.buf[:len(e.buf)+k]
		n += k
	}
	e.raw += n
	return n, e.err
}

// Close encodes the rest of the stream, writes the last tokens and
// returns the stream's Stats. It does not close the underlying writer.
func (e *Writer) Close() (Stats, error) {
	if e.err == nil {
		end := e.base + len(e.buf)
		e.parse(end)
		e.out = e.appendLiterals(e.out, end)
		e.flush()
	}
	return Stats{RawLen: e.raw, OutLen: e.outLen, Cost: float64(e.cost), Matches: e.matches}, e.err
}

// slide drops the buffered bytes before the window of the next
// position, keeping a pending literal run's share of them in spill.
// The buffer is full and encoded up to its lookahead, so the encoded
// part passes the window.
func (e *Writer) slide() {
	k := e.pos - e.window - e.base
	if e.lits < e.base+k {
		e.spill = append(e.spill, e.buf[max(e.lits-e.base, 0):k]...)
	}
	e.buf = e.buf[:copy(e.buf, e.buf[k:])]
	e.base += k
}

// rebase moves origin up to the window of the next position, by a
// multiple of the ring so that no link changes slot. NewWriter's bound
// on rebaseAt makes that move at least one ring.
func (e *Writer) rebase() {
	d := (e.pos - e.window - e.origin) &^ (len(e.prev) - 1)
	for _, t := range [][]int32{e.head[:], e.prev} {
		for i, v := range t {
			t[i] = max(v-int32(d), -1)
		}
	}
	e.origin += d
}

// parse encodes the positions before stream offset stop. Each must be
// followed in the buffer by its lookahead, or the buffer must end the
// stream.
func (e *Writer) parse(stop int) {
	if e.pos >= stop {
		return
	}
	if e.base+len(e.buf)-e.origin > e.rebaseAt {
		e.rebase()
	}
	// Positions from here on are buffer indices; a table entry is a
	// buffer index plus off.
	data, head, prev := e.buf, e.head, e.prev
	window, maxChain, mask := e.window, e.maxChain, len(e.prev)-1
	off := e.base - e.origin
	last := len(data) - minMatch // last position with four bytes to hash
	pos, cost, matches, out := e.pos-e.base, 0, 0, e.out
	for stop -= e.base; pos < stop; {
		cost++
		bestLen, bestDist := 0, 0
		var h uint32 // pos's hash, if it has four bytes
		if pos <= last {
			limit := min(len(data)-pos, maxMatch)
			h = hash4(data[pos:])
			cand := head[h]
			probes := 0
			// The oldest entry in the window; below it, or -1, ends
			// the chain.
			oldest := int32(max(pos+off-window, 0))
			for ; cand >= oldest && probes < maxChain; probes++ {
				c := int(cand) - off
				if bestLen < limit && data[c+bestLen] == data[pos+bestLen] {
					if l := matchLen(data[c:], data[pos:pos+limit]); l > bestLen {
						bestLen, bestDist = l, pos-c
					}
				}
				cand = prev[int(cand)&mask]
			}
			cost += probes
		}
		next := pos + 1
		if bestLen >= minMatch {
			out = e.appendLiterals(out, e.base+pos)
			out = append(out, 0x01)
			out = binary.AppendUvarint(out, uint64(bestLen))
			out = binary.AppendUvarint(out, uint64(bestDist))
			matches++
			cost += bestLen
			next = pos + bestLen
			e.lits = e.base + next
			if len(out) >= flushAt {
				e.out = out
				e.flush()
				out = e.out
			}
		}
		if pos <= last {
			prev[(pos+off)&mask] = head[h]
			head[h] = int32(pos + off)
		}
		for p := pos + 1; p < min(next, last+1); p++ {
			h := hash4(data[p:])
			prev[(p+off)&mask] = head[h]
			head[h] = int32(p + off)
		}
		pos = next
	}
	e.pos, e.out = e.base+pos, out
	e.cost += cost
	e.matches += matches
}

// appendLiterals frames the pending literal run, which ends at stream
// offset end, if there is one.
func (e *Writer) appendLiterals(out []byte, end int) []byte {
	if e.lits == end {
		return out
	}
	out = append(out, 0x00)
	out = binary.AppendUvarint(out, uint64(end-e.lits))
	if len(e.spill) > 0 {
		out = append(out, e.spill...)
		e.spill = e.spill[:0]
	}
	return append(out, e.buf[max(e.lits-e.base, 0):end-e.base]...)
}

// flush writes the gathered tokens.
func (e *Writer) flush() {
	if e.err == nil && len(e.out) > 0 {
		_, e.err = e.w.Write(e.out)
	}
	e.outLen += len(e.out)
	e.out = e.out[:0]
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
