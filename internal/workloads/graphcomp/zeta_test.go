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
	for _, cfg := range []Config{{Window: testWindow}, {Window: 0}, {Window: 3}} {
		enc, err := Encode(ids, lists, cfg)
		if err != nil {
			t.Fatal(err)
		}
		gotIDs, gotLists, err := Decode(enc)
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

// TestZetaImprovesWebgraphRatio: on web-like lists with large ID gaps,
// the residual gaps Encode writes take fewer bits in ζ₃ than they
// would in γ (webgraph's reason for defaulting to ζ). Without a
// reference window every neighbor is a residual, so the stream is the
// γ-coded headers plus exactly the ζ₃ gaps.
func TestZetaImprovesWebgraphRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ids, lists := randomLists(rng, 400, 25, 5_000_000, 0.7)
	head, gamma, zeta := NewBitWriter(), NewBitWriter(), NewBitWriter()
	prevID := int64(0)
	for i, list := range lists {
		vid := int64(ids[i])
		head.WriteGamma0(ZigZag(vid - prevID))
		head.WriteGamma0(uint64(len(list)))
		prevID = vid
		if len(list) == 0 {
			continue
		}
		head.WriteGamma0(0) // no reference
		head.WriteGamma0(uint64(len(list)))
		prev := vid
		for k, u := range list {
			gap := uint64(int64(u)-prev) - 1
			if k == 0 {
				gap = ZigZag(int64(u) - prev)
			}
			gamma.WriteGamma0(gap)
			zeta.WriteZeta0(DefaultZetaK, gap)
			prev = int64(u)
		}
	}
	enc, err := Encode(ids, lists, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if want := head.Len() + zeta.Len(); enc.BitLen != want {
		t.Fatalf("window-0 stream %d bits, want %d headers + %d ζ₃ gaps = %d", enc.BitLen, head.Len(), zeta.Len(), want)
	}
	if zeta.Len() >= gamma.Len() {
		t.Errorf("ζ₃ gaps %d bits not below γ %d", zeta.Len(), gamma.Len())
	}
	t.Logf("residual gaps: γ %d bits, ζ₃ %d bits", gamma.Len(), zeta.Len())
}
