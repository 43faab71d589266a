package graphcomp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestMinimalBinaryRoundtrip(t *testing.T) {
	for _, r := range []uint64{1, 2, 3, 5, 7, 8, 100, 1023, 1025} {
		for m := uint64(0); m < r && m < 200; m++ {
			w := NewBitWriter()
			w.WriteMinimalBinary(m, r)
			br := NewBitReader(w.Bytes())
			got, err := br.ReadMinimalBinary(r)
			if err != nil {
				t.Fatalf("r=%d m=%d: %v", r, m, err)
			}
			if got != m {
				t.Fatalf("r=%d: wrote %d read %d", r, m, got)
			}
		}
	}
}

func TestMinimalBinaryIsMinimal(t *testing.T) {
	// For r a power of two, every value takes exactly log₂ r bits; for
	// other r, small values take one bit less.
	w := NewBitWriter()
	w.WriteMinimalBinary(0, 8)
	if w.Len() != 3 {
		t.Errorf("range 8 took %d bits, want 3", w.Len())
	}
	w2 := NewBitWriter()
	w2.WriteMinimalBinary(0, 5) // cut = 8−5 = 3, so 0,1,2 take 2 bits
	if w2.Len() != 2 {
		t.Errorf("small value in range 5 took %d bits, want 2", w2.Len())
	}
	w3 := NewBitWriter()
	w3.WriteMinimalBinary(4, 5) // large values take 3 bits
	if w3.Len() != 3 {
		t.Errorf("large value in range 5 took %d bits, want 3", w3.Len())
	}
}

func TestZetaRoundtripQuick(t *testing.T) {
	for _, k := range []uint{1, 2, 3, 5} {
		k := k
		f := func(v uint32) bool {
			x := uint64(v) + 1
			w := NewBitWriter()
			w.WriteZeta(k, x)
			r := NewBitReader(w.Bytes())
			got, err := r.ReadZeta(k)
			return err == nil && got == x
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
}

func TestZetaKnownLengths(t *testing.T) {
	// ζ_1 is exactly γ: compare lengths on a range of values.
	for v := uint64(1); v < 200; v++ {
		wg := NewBitWriter()
		wg.WriteGamma(v)
		wz := NewBitWriter()
		wz.WriteZeta(1, v)
		if wg.Len() != wz.Len() {
			t.Fatalf("v=%d: γ %d bits, ζ₁ %d bits", v, wg.Len(), wz.Len())
		}
	}
}

func TestZetaBeatsGammaOnPowerLaw(t *testing.T) {
	// Draw gaps from a heavy-tailed distribution (the regime webgraph's
	// ζ₃ targets) and compare total coded size.
	rng := rand.New(rand.NewSource(13))
	var gBits, zBits int
	for i := 0; i < 5000; i++ {
		// Discrete Pareto with tail exponent 0.3 (density exponent
		// ≈1.3, the heavy-tailed regime ζ₃ targets): x = ⌊u^{-1/0.3}⌋.
		u := rng.Float64()
		x := uint64(math.Pow(u, -1/0.3))
		if x == 0 {
			x = 1
		}
		if x > 1<<40 {
			x = 1 << 40
		}
		wg := NewBitWriter()
		wg.WriteGamma(x)
		gBits += wg.Len()
		wz := NewBitWriter()
		wz.WriteZeta(3, x)
		zBits += wz.Len()
	}
	if zBits >= gBits {
		t.Errorf("ζ₃ %d bits not below γ %d bits on power-law gaps", zBits, gBits)
	}
}

func TestZetaPanicsAndErrors(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ζ(0 value) must panic")
			}
		}()
		NewBitWriter().WriteZeta(3, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ζ k=0 must panic")
			}
		}()
		NewBitWriter().WriteZeta(0, 5)
	}()
	if _, err := NewBitReader([]byte{0xff}).ReadZeta(0); err == nil {
		t.Error("read with k=0 accepted")
	}
}

func TestEncodeDecodeWithZetaResiduals(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ids, lists := randomLists(rng, 150, 12, 100000, 0.6)
	for _, cfg := range []Config{
		{Window: testWindow, Residuals: ZetaCode},
		{Window: 0, Residuals: ZetaCode, ZetaK: 5},
		{Window: 3, Residuals: ZetaCode, ZetaK: 1},
	} {
		enc, err := Encode(ids, lists, cfg)
		if err != nil {
			t.Fatal(err)
		}
		gotIDs, gotLists, err := Decode(enc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotIDs, ids) {
			t.Fatal("ids differ")
		}
		for i := range lists {
			if len(lists[i]) == 0 && len(gotLists[i]) == 0 {
				continue
			}
			if !reflect.DeepEqual(gotLists[i], lists[i]) {
				t.Fatalf("cfg %+v list %d differs", cfg, i)
			}
		}
	}
}

func TestMismatchedCodecFails(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ids, lists := randomLists(rng, 40, 10, 100000, 0.3)
	enc, err := Encode(ids, lists, Config{Window: 2, Residuals: ZetaCode})
	if err != nil {
		t.Fatal(err)
	}
	// Decoding ζ-coded residuals as γ must fail or mis-decode — it must
	// not silently return the original lists.
	gotIDs, gotLists, err := Decode(enc, Config{Window: 2, Residuals: GammaCode})
	if err == nil && reflect.DeepEqual(gotIDs, ids) {
		same := true
		for i := range lists {
			if !reflect.DeepEqual(gotLists[i], lists[i]) {
				same = false
				break
			}
		}
		if same {
			t.Error("codec mismatch decoded identically — codes are not actually different")
		}
	}
}

func TestUnknownCodeRejected(t *testing.T) {
	if _, err := Encode(nil, nil, Config{Residuals: Code(9)}); err == nil {
		t.Error("unknown code accepted by Encode")
	}
	if _, _, err := Decode(&Encoded{}, Config{Residuals: Code(9)}); err == nil {
		t.Error("unknown code accepted by Decode")
	}
}

func TestZetaImprovesWebgraphRatio(t *testing.T) {
	// On web-like lists with large ID gaps, ζ₃ residuals should not be
	// worse than γ overall (webgraph's reason for defaulting to ζ).
	rng := rand.New(rand.NewSource(31))
	ids, lists := randomLists(rng, 400, 25, 5_000_000, 0.7)
	encG, err := Encode(ids, lists, Config{Window: testWindow})
	if err != nil {
		t.Fatal(err)
	}
	encZ, err := Encode(ids, lists, Config{Window: testWindow, Residuals: ZetaCode})
	if err != nil {
		t.Fatal(err)
	}
	if float64(encZ.BitLen) > 1.02*float64(encG.BitLen) {
		t.Errorf("ζ stream %d bits much larger than γ %d", encZ.BitLen, encG.BitLen)
	}
	t.Logf("γ %d bits, ζ₃ %d bits", encG.BitLen, encZ.BitLen)
}
