package graphcomp

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestBitRoundtripPrimitives(t *testing.T) {
	w := NewBitWriter()
	w.WriteBit(1)
	w.WriteBit(0)
	w.WriteBits(0b1011, 4)
	w.WriteUnary(5)
	w.WriteGamma(1)
	w.WriteGamma(17)
	w.WriteGamma0(0)
	w.WriteGamma0(99)
	r := NewBitReader(w.Bytes())
	if b, _ := r.ReadBit(); b != 1 {
		t.Error("bit 1")
	}
	if b, _ := r.ReadBit(); b != 0 {
		t.Error("bit 0")
	}
	if v, _ := r.ReadBits(4); v != 0b1011 {
		t.Errorf("bits = %b", v)
	}
	if v, _ := r.ReadUnary(); v != 5 {
		t.Errorf("unary = %d", v)
	}
	if v, _ := r.ReadGamma(); v != 1 {
		t.Errorf("gamma = %d", v)
	}
	if v, _ := r.ReadGamma(); v != 17 {
		t.Errorf("gamma = %d", v)
	}
	if v, _ := r.ReadGamma0(); v != 0 {
		t.Errorf("gamma0 = %d", v)
	}
	if v, _ := r.ReadGamma0(); v != 99 {
		t.Errorf("gamma0 = %d", v)
	}
}

func TestGammaQuick(t *testing.T) {
	f := func(v uint32) bool {
		x := uint64(v) + 1
		w := NewBitWriter()
		w.WriteGamma(x)
		r := NewBitReader(w.Bytes())
		got, err := r.ReadGamma()
		return err == nil && got == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGammaZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("γ(0) must panic")
		}
	}()
	NewBitWriter().WriteGamma(0)
}

func TestZigZag(t *testing.T) {
	for _, x := range []int64{0, -1, 1, -2, 2, 1 << 40, -(1 << 40)} {
		if UnZigZag(ZigZag(x)) != x {
			t.Errorf("zigzag roundtrip failed for %d", x)
		}
	}
	if ZigZag(0) != 0 || ZigZag(-1) != 1 || ZigZag(1) != 2 {
		t.Error("zigzag mapping wrong")
	}
}

func TestReadPastEnd(t *testing.T) {
	r := NewBitReader([]byte{0xFF})
	if _, err := r.ReadBits(9); err == nil {
		t.Error("reading 9 bits from 1 byte must fail")
	}
	r2 := NewBitReader([]byte{0x00})
	if _, err := r2.ReadUnary(); err == nil {
		t.Error("unterminated unary must fail")
	}
}

func TestBitWriterLen(t *testing.T) {
	w := NewBitWriter()
	if w.Len() != 0 {
		t.Error("empty len")
	}
	for i := 0; i < 13; i++ {
		w.WriteBit(1)
	}
	if w.Len() != 13 {
		t.Errorf("len = %d", w.Len())
	}
}

func TestEncodeDecodeRoundtripSimple(t *testing.T) {
	ids := []uint32{10, 11, 12, 40}
	lists := [][]uint32{
		{1, 5, 9, 200},
		{1, 5, 9, 201},
		{},
		{0},
	}
	enc, err := Encode(ids, lists, Config{Window: testWindow})
	if err != nil {
		t.Fatal(err)
	}
	gotIDs, gotLists, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotIDs, ids) {
		t.Errorf("ids %v", gotIDs)
	}
	for i := range lists {
		if len(lists[i]) == 0 && len(gotLists[i]) == 0 {
			continue
		}
		if !reflect.DeepEqual(gotLists[i], lists[i]) {
			t.Errorf("list %d: %v vs %v", i, gotLists[i], lists[i])
		}
	}
}

func TestEncodeValidation(t *testing.T) {
	if _, err := Encode([]uint32{1}, nil, Config{}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Encode([]uint32{1}, [][]uint32{{3, 2}}, Config{}); err == nil {
		t.Error("descending list accepted")
	}
	if _, err := Encode([]uint32{1}, [][]uint32{{2, 2}}, Config{}); err == nil {
		t.Error("duplicate neighbor accepted")
	}
	if _, err := Encode(nil, nil, Config{Window: -1}); err == nil {
		t.Error("negative window accepted")
	}
}

// randomLists builds n random ascending lists over [0, universe).
func randomLists(rng *rand.Rand, n, meanDeg, universe int, similarity float64) ([]uint32, [][]uint32) {
	ids := make([]uint32, n)
	lists := make([][]uint32, n)
	for i := range lists {
		ids[i] = uint32(i * 3)
		set := map[uint32]struct{}{}
		if i > 0 && rng.Float64() < similarity {
			for _, u := range lists[i-1] {
				if rng.Float64() < 0.8 {
					set[u] = struct{}{}
				}
			}
		}
		deg := rng.Intn(2*meanDeg + 1)
		for len(set) < deg {
			set[uint32(rng.Intn(universe))] = struct{}{}
		}
		list := make([]uint32, 0, len(set))
		for u := range set {
			list = append(list, u)
		}
		for a := 1; a < len(list); a++ {
			for b := a; b > 0 && list[b-1] > list[b]; b-- {
				list[b-1], list[b] = list[b], list[b-1]
			}
		}
		lists[i] = list
	}
	return ids, lists
}

func TestEncodeDecodeRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(200)
		ids, lists := randomLists(rng, n, 8, 10000, 0.5)
		for _, window := range []int{0, 3, testWindow} {
			enc, err := Encode(ids, lists, Config{Window: window})
			if err != nil {
				t.Fatalf("trial %d w%d: %v", trial, window, err)
			}
			gotIDs, gotLists, err := Decode(enc)
			if err != nil {
				t.Fatalf("trial %d w%d: %v", trial, window, err)
			}
			if !reflect.DeepEqual(gotIDs, ids) {
				t.Fatalf("trial %d w%d: ids differ", trial, window)
			}
			for i := range lists {
				if len(lists[i]) == 0 && len(gotLists[i]) == 0 {
					continue
				}
				if !reflect.DeepEqual(gotLists[i], lists[i]) {
					t.Fatalf("trial %d w%d list %d: %v vs %v", trial, window, i, gotLists[i], lists[i])
				}
			}
		}
	}
}

// fuzzLists turns data into vertex IDs and strictly increasing
// adjacency lists. Each list's first byte b gives its vertex ID b<<12;
// every following byte up to a zero adds a neighbor at least one past
// the previous (the first at least 0) by a step of (b&31)<<(3·(b>>5)),
// so steps reach 0 and tens of millions, and a first neighbor may lie
// on either side of the vertex ID. A step past the uint32 range adds
// nothing.
func fuzzLists(data []byte) ([]uint32, [][]uint32) {
	var ids []uint32
	var lists [][]uint32
	for len(data) > 0 {
		ids = append(ids, uint32(data[0])<<12)
		data = data[1:]
		var list []uint32
		next := uint64(0)
		for len(data) > 0 && data[0] != 0 {
			b := data[0]
			data = data[1:]
			if next += uint64(b&31) << (3 * (b >> 5)); next <= math.MaxUint32 {
				list = append(list, uint32(next))
			}
			next++
		}
		if len(data) > 0 {
			data = data[1:] // the closing zero
		}
		lists = append(lists, list)
	}
	return ids, lists
}

// FuzzEncodeRoundTrip: whatever lists Encode accepts, Decode returns
// them unchanged, at every reference window.
func FuzzEncodeRoundTrip(f *testing.F) {
	f.Add([]byte{1, 5, 9, 200, 0, 1, 5, 9, 201, 0, 2, 0, 40, 1}, uint8(testWindow))
	f.Add([]byte{255, 0xff, 0xfe, 0xe1, 0, 0, 0x21, 0x22, 0, 255, 0xff, 0xfe, 0xe1}, uint8(3))
	f.Add([]byte{9, 1, 1, 1, 1, 0, 9, 1, 1, 2, 1, 0, 9, 1, 2, 1, 1}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, window uint8) {
		ids, lists := fuzzLists(data)
		w := int(window % (testWindow + 2))
		enc, err := Encode(ids, lists, Config{Window: w})
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		gotIDs, gotLists, err := Decode(enc)
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		if !slices.Equal(gotIDs, ids) {
			t.Fatalf("window %d: ids %v, want %v", w, gotIDs, ids)
		}
		if len(gotLists) != len(lists) {
			t.Fatalf("window %d: %d lists, want %d", w, len(gotLists), len(lists))
		}
		for i := range lists {
			if !slices.Equal(gotLists[i], lists[i]) {
				t.Fatalf("window %d, list %d: %v, want %v", w, i, gotLists[i], lists[i])
			}
		}
	})
}

func TestReferenceCompressionHelpsSimilarLists(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ids, similar := randomLists(rng, 300, 20, 1000000, 0.95)
	encRef, err := Encode(ids, similar, Config{Window: testWindow})
	if err != nil {
		t.Fatal(err)
	}
	encNoRef, err := Encode(ids, similar, Config{Window: 0})
	if err != nil {
		t.Fatal(err)
	}
	if encRef.BitLen >= encNoRef.BitLen {
		t.Errorf("window %d bits %d not below window-0 bits %d on similar lists",
			testWindow, encRef.BitLen, encNoRef.BitLen)
	}
}

func TestSimilarOrderingCompressesBetter(t *testing.T) {
	// The paper's §V-C2 claim: placing similar lists consecutively
	// (similar-together partitioning) yields a better ratio than
	// interleaving them.
	rng := rand.New(rand.NewSource(9))
	idsA, groupA := randomLists(rng, 150, 20, 50000, 0.95)
	_, groupB := randomLists(rng, 150, 20, 50000, 0.95)
	// Shift group B into a different universe region.
	for _, l := range groupB {
		for k := range l {
			l[k] += 500000
		}
	}
	idsB := make([]uint32, len(groupB))
	for i := range idsB {
		idsB[i] = uint32(100000 + i*3)
	}
	// Grouped: A then B. Interleaved: alternate.
	gIDs := append(append([]uint32{}, idsA...), idsB...)
	gLists := append(append([][]uint32{}, groupA...), groupB...)
	var iIDs []uint32
	var iLists [][]uint32
	for i := 0; i < len(groupA); i++ {
		iIDs = append(iIDs, idsA[i], idsB[i])
		iLists = append(iLists, groupA[i], groupB[i])
	}
	encG, err := Encode(gIDs, gLists, Config{Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	encI, err := Encode(iIDs, iLists, Config{Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	if encG.BitLen >= encI.BitLen {
		t.Errorf("grouped %d bits not below interleaved %d bits", encG.BitLen, encI.BitLen)
	}
}

func TestRatioAndRawBits(t *testing.T) {
	ids := []uint32{0, 1}
	lists := [][]uint32{{1, 2, 3}, {}}
	raw := RawBits(ids, lists)
	if raw != 32*2+32*4+32 {
		t.Errorf("raw bits %d", raw)
	}
	enc, err := Encode(ids, lists, Config{Window: testWindow})
	if err != nil {
		t.Fatal(err)
	}
	if enc.BitLen <= 0 || enc.BitLen >= raw {
		t.Errorf("compressed %d bits of %d raw: ratio must exceed 1", enc.BitLen, raw)
	}
}

func TestDecodeCorruptStream(t *testing.T) {
	enc := &Encoded{Bits: []byte{0x00}, NumLists: 3, BitLen: 8}
	if _, _, err := Decode(enc); err == nil {
		t.Error("corrupt stream decoded")
	}
}

func TestCostDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ids, lists := randomLists(rng, 50, 10, 1000, 0.5)
	a, err := Encode(ids, lists, Config{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(ids, lists, Config{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || a.BitLen != b.BitLen {
		t.Error("encoding not deterministic")
	}
	if a.Cost <= 0 {
		t.Error("zero cost")
	}
}

func BenchmarkEncode300Lists(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	ids, lists := randomLists(rng, 300, 25, 100000, 0.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(ids, lists, Config{Window: testWindow}); err != nil {
			b.Fatal(err)
		}
	}
}
