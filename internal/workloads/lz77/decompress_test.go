package lz77

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The decompressor is the round-trip oracle of the tests, and Ratio the
// number their compression thresholds are stated in: the framework only
// compresses (paper Tables II and III report compressed size), so no
// non-test code reads a token stream back.

// Ratio returns original size / compressed size.
func (e *Encoded) Ratio() float64 {
	if len(e.Data) == 0 {
		return 0
	}
	return float64(e.RawLen) / float64(len(e.Data))
}

// ErrCorrupt reports a malformed token stream.
var ErrCorrupt = errors.New("lz77: corrupt stream")

// Decompress decodes a token stream produced by Compress.
func Decompress(data []byte) ([]byte, error) {
	var out []byte
	pos := 0
	for pos < len(data) {
		tag := data[pos]
		pos++
		switch tag {
		case 0x00:
			n, k := binary.Uvarint(data[pos:])
			if k <= 0 || n == 0 {
				return nil, fmt.Errorf("%w: bad literal run header", ErrCorrupt)
			}
			pos += k
			if n > uint64(len(data)-pos) {
				return nil, fmt.Errorf("%w: literal run past end", ErrCorrupt)
			}
			out = append(out, data[pos:pos+int(n)]...)
			pos += int(n)
		case 0x01:
			l, k := binary.Uvarint(data[pos:])
			if k <= 0 {
				return nil, fmt.Errorf("%w: bad match length", ErrCorrupt)
			}
			pos += k
			d, k2 := binary.Uvarint(data[pos:])
			if k2 <= 0 {
				return nil, fmt.Errorf("%w: bad match distance", ErrCorrupt)
			}
			pos += k2
			if d == 0 || d > uint64(len(out)) {
				return nil, fmt.Errorf("%w: distance %d with %d bytes output", ErrCorrupt, d, len(out))
			}
			if l == 0 || l > maxMatch {
				return nil, fmt.Errorf("%w: match length %d", ErrCorrupt, l)
			}
			start := len(out) - int(d)
			for i := 0; i < int(l); i++ {
				out = append(out, out[start+i])
			}
		default:
			return nil, fmt.Errorf("%w: unknown tag %#x", ErrCorrupt, tag)
		}
	}
	return out, nil
}
