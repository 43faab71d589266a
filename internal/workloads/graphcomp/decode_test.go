package graphcomp

import (
	"errors"
	"fmt"
)

// The decoder is the round-trip oracle of the tests: the framework
// only ever compresses (paper §V-C2 measures compressed size), so
// nothing outside this package's tests reads a stream back.

// testWindow is webgraph's usual small reference window, the one the
// graph-compression workload encodes with.
const testWindow = 7

// Decode reverses Encode, returning vertex IDs and adjacency lists.
func Decode(enc *Encoded) ([]uint32, [][]uint32, error) {
	r := NewBitReader(enc.Bits)
	ids := make([]uint32, 0, enc.NumLists)
	lists := make([][]uint32, 0, enc.NumLists)
	prevID := int64(0)
	for i := 0; i < enc.NumLists; i++ {
		dz, err := r.ReadGamma0()
		if err != nil {
			return nil, nil, fmt.Errorf("graphcomp: list %d id: %w", i, err)
		}
		vid := prevID + UnZigZag(dz)
		prevID = vid
		if vid < 0 {
			return nil, nil, fmt.Errorf("graphcomp: list %d negative id", i)
		}
		deg, err := r.ReadGamma0()
		if err != nil {
			return nil, nil, fmt.Errorf("graphcomp: list %d degree: %w", i, err)
		}
		if deg == 0 {
			ids = append(ids, uint32(vid))
			lists = append(lists, nil)
			continue
		}
		ref, err := r.ReadGamma0()
		if err != nil {
			return nil, nil, fmt.Errorf("graphcomp: list %d ref: %w", i, err)
		}
		var copied []uint32
		if ref > 0 {
			if int(ref) > i {
				return nil, nil, fmt.Errorf("graphcomp: list %d references %d back", i, ref)
			}
			refList := lists[i-int(ref)]
			nRuns, err := r.ReadGamma0()
			if err != nil {
				return nil, nil, err
			}
			pos := 0
			copying := true
			for k := uint64(0); k < nRuns; k++ {
				runLen, err := r.ReadGamma0()
				if err != nil {
					return nil, nil, err
				}
				if copying {
					for j := uint64(0); j < runLen; j++ {
						if pos >= len(refList) {
							return nil, nil, errors.New("graphcomp: copy run past reference")
						}
						copied = append(copied, refList[pos])
						pos++
					}
				} else {
					pos += int(runLen)
				}
				copying = !copying
			}
			if pos != len(refList) {
				return nil, nil, errors.New("graphcomp: runs do not cover reference")
			}
		}
		nResid, err := r.ReadGamma0()
		if err != nil {
			return nil, nil, err
		}
		resid := make([]uint32, nResid)
		prev := vid
		for k := range resid {
			g, err := r.ReadZeta0(DefaultZetaK)
			if err != nil {
				return nil, nil, err
			}
			var u int64
			if k == 0 {
				u = prev + UnZigZag(g)
			} else {
				u = prev + int64(g) + 1
			}
			if u < 0 {
				return nil, nil, errors.New("graphcomp: negative neighbor")
			}
			resid[k] = uint32(u)
			prev = u
		}
		list := mergeSorted(copied, resid)
		if uint64(len(list)) != deg {
			return nil, nil, fmt.Errorf("graphcomp: list %d decoded %d of %d neighbors", i, len(list), deg)
		}
		ids = append(ids, uint32(vid))
		lists = append(lists, list)
	}
	return ids, lists, nil
}

// mergeSorted merges two ascending disjoint lists.
func mergeSorted(a, b []uint32) []uint32 {
	out := make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// BitReader consumes a bit stream produced by BitWriter.
type BitReader struct {
	buf []byte
	pos int // bit position
}

// NewBitReader wraps a byte stream.
func NewBitReader(b []byte) *BitReader { return &BitReader{buf: b} }

// ErrOutOfBits reports reading past the end of the stream.
var ErrOutOfBits = errors.New("graphcomp: read past end of bit stream")

// ReadBit consumes one bit.
func (r *BitReader) ReadBit() (uint, error) {
	byteIdx := r.pos >> 3
	if byteIdx >= len(r.buf) {
		return 0, ErrOutOfBits
	}
	bit := uint(r.buf[byteIdx]>>(7-uint(r.pos&7))) & 1
	r.pos++
	return bit, nil
}

// ReadBits consumes n bits into the low end of the result.
func (r *BitReader) ReadBits(n int) (uint64, error) {
	var v uint64
	for i := 0; i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

// ReadUnary consumes zeros up to a one and returns the zero count.
func (r *BitReader) ReadUnary() (uint64, error) {
	var v uint64
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			return v, nil
		}
		v++
		if v > 64*uint64(len(r.buf))+64 {
			return 0, fmt.Errorf("graphcomp: runaway unary code")
		}
	}
}

// ReadGamma consumes one γ code (v ≥ 1).
func (r *BitReader) ReadGamma() (uint64, error) {
	l, err := r.ReadUnary()
	if err != nil {
		return 0, err
	}
	if l > 63 {
		return 0, fmt.Errorf("graphcomp: γ length %d too large", l)
	}
	rest, err := r.ReadBits(int(l))
	if err != nil {
		return 0, err
	}
	return 1<<l | rest, nil
}

// ReadGamma0 consumes one γ₀ code (v ≥ 0).
func (r *BitReader) ReadGamma0() (uint64, error) {
	v, err := r.ReadGamma()
	if err != nil {
		return 0, err
	}
	return v - 1, nil
}

// UnZigZag inverts ZigZag.
func UnZigZag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// ReadMinimalBinary reads a truncated-binary value in [0, r).
func (r *BitReader) ReadMinimalBinary(rng uint64) (uint64, error) {
	if rng <= 1 {
		return 0, nil
	}
	b := bitsLen(rng - 1)
	cut := uint64(1)<<b - rng
	hi, err := r.ReadBits(int(b) - 1)
	if err != nil {
		return 0, err
	}
	if hi < cut {
		return hi, nil
	}
	low, err := r.ReadBit()
	if err != nil {
		return 0, err
	}
	return (hi<<1 | uint64(low)) - cut, nil
}

// ReadZeta reads one ζ_k code.
func (r *BitReader) ReadZeta(k uint) (uint64, error) {
	if k == 0 {
		return 0, fmt.Errorf("graphcomp: ζ k must be ≥ 1")
	}
	h, err := r.ReadUnary()
	if err != nil {
		return 0, err
	}
	if h*uint64(k) > 62 {
		return 0, fmt.Errorf("graphcomp: ζ magnitude overflow (h=%d)", h)
	}
	lo := uint64(1) << (uint(h) * k)
	hi := uint64(1) << ((uint(h) + 1) * k)
	m, err := r.ReadMinimalBinary(hi - lo)
	if err != nil {
		return 0, err
	}
	return lo + m, nil
}

// ReadZeta0 reads one ζ_k₀ code.
func (r *BitReader) ReadZeta0(k uint) (uint64, error) {
	v, err := r.ReadZeta(k)
	if err != nil {
		return 0, err
	}
	return v - 1, nil
}
