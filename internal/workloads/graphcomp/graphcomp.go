package graphcomp

import (
	"errors"
	"fmt"
)

// Config controls the compressor.
type Config struct {
	// Window is the reference window: how many previously encoded
	// lists each list may copy from. 0 disables reference compression.
	Window int
}

// DefaultZetaK is webgraph's default ζ shrinking parameter, the one
// residual gaps are coded with.
const DefaultZetaK = 3

// Encoded is a compressed block of adjacency lists.
type Encoded struct {
	// Bits is the compressed stream.
	Bits []byte
	// NumLists is the number of encoded lists.
	NumLists int
	// BitLen is the exact stream length in bits.
	BitLen int
	// Cost is the deterministic work metric of encoding (units of
	// neighbor-processing steps, including reference-search work).
	Cost float64
}

// RawBits returns the uncompressed baseline: 32 bits per vertex ID and
// per edge endpoint, the natural array-of-adjacency representation.
func RawBits(ids []uint32, lists [][]uint32) int {
	n := 32 * len(ids)
	for _, l := range lists {
		n += 32 * (len(l) + 1) // degree word + endpoints
	}
	return n
}

// Encode compresses the given adjacency lists (with their vertex IDs)
// in order. Lists must be strictly increasing. The partition's order is
// the reference order: similar consecutive lists compress well.
func Encode(ids []uint32, lists [][]uint32, cfg Config) (*Encoded, error) {
	if len(ids) != len(lists) {
		return nil, fmt.Errorf("graphcomp: %d ids but %d lists", len(ids), len(lists))
	}
	window := cfg.Window
	if window < 0 {
		return nil, errors.New("graphcomp: negative window")
	}
	w := NewBitWriter()
	var cost float64
	prevID := int64(0)
	for i, list := range lists {
		for k := 1; k < len(list); k++ {
			if list[k-1] >= list[k] {
				return nil, fmt.Errorf("graphcomp: list %d not strictly increasing", i)
			}
		}
		// Vertex ID, delta-coded against the previous record.
		w.WriteGamma0(ZigZag(int64(ids[i]) - prevID))
		prevID = int64(ids[i])
		w.WriteGamma0(uint64(len(list)))
		cost += float64(len(list)) + 1
		if len(list) == 0 {
			continue
		}
		// Choose the best reference in the window by trial encoding.
		bestRef := 0
		var bestBody *BitWriter
		for r := 0; r <= window && r <= i; r++ {
			var refList []uint32
			if r > 0 {
				refList = lists[i-r]
				cost += float64(len(refList))
			}
			body := encodeBody(int64(ids[i]), list, refList)
			if bestBody == nil || body.Len() < bestBody.Len() {
				bestBody = body
				bestRef = r
			}
		}
		w.WriteGamma0(uint64(bestRef))
		copyBits(w, bestBody)
	}
	return &Encoded{Bits: w.Bytes(), NumLists: len(lists), BitLen: w.Len(), Cost: cost}, nil
}

// encodeBody encodes one list against an optional reference list:
// copy-block runs over the reference, then ζ₃-coded residual gaps.
func encodeBody(vid int64, list []uint32, ref []uint32) *BitWriter {
	w := NewBitWriter()
	inList := make(map[uint32]bool, len(list))
	for _, u := range list {
		inList[u] = true
	}
	copied := make(map[uint32]bool)
	if len(ref) > 0 {
		// Runs over ref: alternating copy/skip, starting with copy.
		var runs []uint64
		cur := uint64(0)
		copying := true
		for _, u := range ref {
			isCopy := inList[u]
			if isCopy == copying {
				cur++
			} else {
				runs = append(runs, cur)
				copying = !copying
				cur = 1
			}
			if isCopy {
				copied[u] = true
			}
		}
		runs = append(runs, cur)
		w.WriteGamma0(uint64(len(runs)))
		for _, r := range runs {
			w.WriteGamma0(r)
		}
	}
	// Residuals: list minus copied, ascending.
	var resid []uint32
	for _, u := range list {
		if !copied[u] {
			resid = append(resid, u)
		}
	}
	w.WriteGamma0(uint64(len(resid)))
	prev := vid
	for k, u := range resid {
		if k == 0 {
			w.WriteZeta0(DefaultZetaK, ZigZag(int64(u)-prev))
		} else {
			w.WriteZeta0(DefaultZetaK, uint64(int64(u)-prev)-1)
		}
		prev = int64(u)
	}
	return w
}

// copyBits appends src's bits to dst.
func copyBits(dst, src *BitWriter) {
	n := src.Len()
	for i := 0; i < n; i++ {
		b := uint(src.buf[i>>3]>>(7-uint(i&7))) & 1
		dst.WriteBit(b)
	}
}
