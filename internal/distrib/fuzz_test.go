package distrib

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"pareto/internal/sketch"
)

// FuzzDecodeSketchBlock feeds arbitrary blocks to the coordinator's
// gather decoder for a table of n records of the given width. It must
// never panic, and what it accepts must be self-consistent: whole
// records only, every index below n, and each record's table row holds
// that record's values (a later record for the same index wins), so
// the record re-encodes to its own bytes.
func FuzzDecodeSketchBlock(f *testing.F) {
	rec := func(idx uint32, vals ...uint64) []byte {
		b, err := appendSketchRecord(nil, int(idx), vals)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(append(rec(0, 1, 2), rec(3, 7, 8)...), uint8(2), uint16(4))
	f.Add(append(rec(1, 5, 6), rec(1, 9, 9)...), uint8(2), uint16(2))
	f.Add(rec(4, 1, 2), uint8(2), uint16(4))
	f.Add(rec(0, 1, 2)[:9], uint8(2), uint16(4))
	f.Add([]byte{}, uint8(1), uint16(1))
	f.Fuzz(func(t *testing.T, block []byte, width uint8, records uint16) {
		w, n := int(width%16)+1, int(records%256)
		flat := make([]uint64, n*w)
		out := make([]sketch.Sketch, n)
		if decodeSketchBlock(block, w, flat, out) != nil {
			return
		}
		recSize := 4 + 8*w
		if len(block) == 0 || len(block)%recSize != 0 {
			t.Fatalf("accepted a %d-byte block of %d-byte records", len(block), recSize)
		}
		last := map[int][]byte{}
		for r := block; len(r) > 0; r = r[recSize:] {
			idx := int(binary.LittleEndian.Uint32(r))
			if idx >= n {
				t.Fatalf("accepted record index %d of a %d-record table", idx, n)
			}
			last[idx] = r[:recSize]
		}
		for idx := range out {
			want, shipped := last[idx]
			if !shipped {
				if out[idx] != nil {
					t.Fatalf("record %d was not in the block but has a sketch", idx)
				}
				continue
			}
			if len(out[idx]) != w || &out[idx][0] != &flat[idx*w] {
				t.Fatalf("record %d's sketch is not its row of the table", idx)
			}
			got, err := appendSketchRecord(nil, idx, out[idx])
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("record %d decodes to %v, which re-encodes as %x, want %x", idx, out[idx], got, want)
			}
		}
	})
}

// FuzzDecodeAssignment feeds arbitrary buffers to the worker's decoder
// of the published record→stratum table, for n records clustered with
// K = k. It must never panic; what it accepts is n ids, each below
// min(k, n), that re-encode to the buffer; and a table built from the
// same bytes within those bounds round-trips through encodeAssignment.
func FuzzDecodeAssignment(f *testing.F) {
	enc := func(ids ...int) []byte {
		b, err := encodeAssignment(ids)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(enc(0, 5, 2, 7, 1), uint16(5), uint16(8))
	f.Add(append(enc(0, 1, 2), 0, 0, 0), uint16(3), uint16(4))
	f.Add(enc(0, 3), uint16(2), uint16(4))
	f.Add(enc(0, 1, 1), uint16(3), uint16(1))
	f.Add([]byte{}, uint16(0), uint16(1))
	f.Fuzz(func(t *testing.T, buf []byte, records, strata uint16) {
		n, k := int(records%512), int(strata%64)+1
		if out, err := decodeAssignment(buf, n, k); err == nil {
			if len(out) != n {
				t.Fatalf("accepted %d ids for %d records", len(out), n)
			}
			for i, a := range out {
				if a < 0 || a >= min(k, n) {
					t.Fatalf("accepted record %d in stratum %d, K=%d, n=%d", i, a, k, n)
				}
			}
			if back, err := encodeAssignment(out); err != nil || !bytes.Equal(back, buf) {
				t.Fatalf("decoded %v re-encodes as %x, %v; want %x", out, back, err, buf)
			}
		}
		in := make([]int, n)
		for i := range in {
			if i < len(buf) {
				in[i] = int(buf[i]) % min(k, n)
			}
		}
		b, err := encodeAssignment(in)
		if err != nil {
			t.Fatal(err)
		}
		if out, err := decodeAssignment(b, n, k); err != nil || !slices.Equal(out, in) {
			t.Fatalf("%v round-trips to %v, %v", in, out, err)
		}
	})
}
