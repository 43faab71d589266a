package sketch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReduceInField(t *testing.T) {
	cases := []uint64{0, 1, MersennePrime61 - 1, MersennePrime61, MersennePrime61 + 1, ^uint64(0), 1 << 62}
	for _, x := range cases {
		if r := reduce(x); r >= MersennePrime61 {
			t.Errorf("reduce(%d) = %d, not in field", x, r)
		}
	}
}

func TestReduceCongruent(t *testing.T) {
	// reduce must preserve value mod p.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		x := rng.Uint64()
		want := x % MersennePrime61
		if got := reduce(x); got != want {
			t.Fatalf("reduce(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestMulModAgainstBigIntStyle(t *testing.T) {
	// Verify mulMod against the definition using 128-bit decomposition
	// through explicit small cases and random cases computed via
	// math/big-free double-and-add.
	mulRef := func(a, b uint64) uint64 {
		// double-and-add in the field; O(64) but exact.
		a %= MersennePrime61
		b %= MersennePrime61
		var acc uint64
		for b > 0 {
			if b&1 == 1 {
				acc = addMod(acc, a)
			}
			a = addMod(a, a)
			b >>= 1
		}
		return acc
	}
	cases := [][2]uint64{
		{0, 0}, {1, 1}, {MersennePrime61 - 1, MersennePrime61 - 1},
		{MersennePrime61 - 1, 2}, {1 << 60, 1 << 60},
	}
	for _, c := range cases {
		if got, want := mulMod(c[0], c[1]), mulRef(c[0], c[1]); got != want {
			t.Errorf("mulMod(%d,%d) = %d, want %d", c[0], c[1], got, want)
		}
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		a := uint64(rng.Int63n(MersennePrime61))
		b := uint64(rng.Int63n(MersennePrime61))
		if got, want := mulMod(a, b), mulRef(a, b); got != want {
			t.Fatalf("mulMod(%d,%d) = %d, want %d", a, b, got, want)
		}
	}
}

func TestNewHasherValidation(t *testing.T) {
	if _, err := NewHasher(0, 1); err == nil {
		t.Error("NewHasher(0) should fail")
	}
	if _, err := NewHasher(-3, 1); err == nil {
		t.Error("NewHasher(-3) should fail")
	}
	h, err := NewHasher(16, 1)
	if err != nil {
		t.Fatalf("NewHasher(16): %v", err)
	}
	if h.K() != 16 {
		t.Errorf("K() = %d, want 16", h.K())
	}
}

func TestHasherDeterministic(t *testing.T) {
	h1, _ := NewHasher(32, 42)
	h2, _ := NewHasher(32, 42)
	set := []Item{3, 1, 4, 1, 5, 9, 2, 6}
	s1, s2 := h1.Sketch(set), h2.Sketch(set)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("same seed produced different sketches at %d: %d vs %d", i, s1[i], s2[i])
		}
	}
	h3, _ := NewHasher(32, 43)
	s3 := h3.Sketch(set)
	same := 0
	for i := range s1 {
		if s1[i] == s3[i] {
			same++
		}
	}
	if same == len(s1) {
		t.Error("different seeds produced identical sketches; permutations not seed-dependent")
	}
}

func TestSketchOrderAndDuplicateInvariance(t *testing.T) {
	h, _ := NewHasher(24, 7)
	a := []Item{10, 20, 30, 40}
	b := []Item{40, 30, 20, 10, 10, 30}
	sa, sb := h.Sketch(a), h.Sketch(b)
	if sa.Agreement(sb) != 1.0 {
		t.Error("sketch must be invariant to order and duplicates")
	}
}

func TestSketchEmptySet(t *testing.T) {
	h, _ := NewHasher(8, 7)
	s := h.Sketch(nil)
	for i, v := range s {
		if v != EmptySentinel {
			t.Errorf("empty-set sketch coordinate %d = %d, want sentinel", i, v)
		}
	}
}

func TestIdenticalSetsFullAgreement(t *testing.T) {
	h, _ := NewHasher(64, 3)
	set := []Item{1, 2, 3, 4, 5}
	if got := h.Sketch(set).Agreement(h.Sketch(set)); got != 1.0 {
		t.Errorf("identical sets agreement = %v, want 1", got)
	}
}

func TestDisjointSetsLowAgreement(t *testing.T) {
	h, _ := NewHasher(128, 3)
	a := make([]Item, 100)
	b := make([]Item, 100)
	for i := range a {
		a[i] = Item(i)
		b[i] = Item(i + 1000)
	}
	if got := h.Sketch(a).Agreement(h.Sketch(b)); got > 0.1 {
		t.Errorf("disjoint sets agreement = %v, want near 0", got)
	}
}

func TestAgreementEstimatesJaccard(t *testing.T) {
	// The core MinHash property: E[agreement] = Jaccard. With k=512
	// the standard error is ~sqrt(J(1-J)/512) < 0.023, so a 0.12
	// tolerance gives a >5-sigma margin.
	h, _ := NewHasher(512, 99)
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		shared := rng.Intn(200) + 1
		onlyA := rng.Intn(200)
		onlyB := rng.Intn(200)
		var a, b []Item
		for i := 0; i < shared; i++ {
			v := rng.Uint64()
			a = append(a, v)
			b = append(b, v)
		}
		for i := 0; i < onlyA; i++ {
			a = append(a, rng.Uint64()|1<<63)
		}
		for i := 0; i < onlyB; i++ {
			b = append(b, rng.Uint64()&^(uint64(1)<<63)|1<<62)
		}
		exact := ExactJaccard(a, b)
		est := h.Sketch(a).Agreement(h.Sketch(b))
		if math.Abs(exact-est) > 0.12 {
			t.Errorf("trial %d: exact Jaccard %.3f, estimate %.3f", trial, exact, est)
		}
	}
}

func TestExactJaccard(t *testing.T) {
	cases := []struct {
		a, b []Item
		want float64
	}{
		{nil, nil, 0},
		{[]Item{1}, nil, 0},
		{nil, []Item{1}, 0},
		{[]Item{1, 2}, []Item{1, 2}, 1},
		{[]Item{1, 2, 3, 4}, []Item{3, 4, 5, 6}, 2.0 / 6.0},
		{[]Item{1, 1, 2, 2}, []Item{2, 2, 3}, 1.0 / 3.0},
		{[]Item{1}, []Item{2}, 0},
	}
	for i, c := range cases {
		if got := ExactJaccard(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: ExactJaccard = %v, want %v", i, got, c.want)
		}
	}
}

func TestExactJaccardSymmetric(t *testing.T) {
	f := func(a, b []uint64) bool {
		return math.Abs(ExactJaccard(a, b)-ExactJaccard(b, a)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExactJaccardBounds(t *testing.T) {
	f := func(a, b []uint64) bool {
		j := ExactJaccard(a, b)
		return j >= 0 && j <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPermutationIsInjectiveOnSamples(t *testing.T) {
	// A linear map with A≠0 over a prime field is a bijection; verify
	// no collisions over a random sample.
	lp := LinearPermutation{A: 123456789, B: 987654321}
	seen := make(map[uint64]uint64)
	for x := uint64(0); x < 5000; x++ {
		v := lp.Apply(x)
		if prev, ok := seen[v]; ok {
			t.Fatalf("collision: Apply(%d) == Apply(%d) == %d", x, prev, v)
		}
		seen[v] = x
	}
}

func TestSketchIntoMatchesSketch(t *testing.T) {
	h, _ := NewHasher(16, 5)
	set := []Item{9, 8, 7, 6}
	dst := make(Sketch, 16)
	h.SketchInto(set, dst)
	ref := h.Sketch(set)
	for i := range dst {
		if dst[i] != ref[i] {
			t.Fatalf("SketchInto differs from Sketch at %d", i)
		}
	}
}

// TestSketchAllMatchesSketch is the golden-equality test for the bulk
// arena path: every coordinate of every SketchAll output must equal the
// per-set Sketch output, for any worker count, including empty sets.
func TestSketchAllMatchesSketch(t *testing.T) {
	h, _ := NewHasher(24, 9)
	rng := rand.New(rand.NewSource(4))
	sets := make([][]Item, 157)
	for i := range sets {
		set := make([]Item, rng.Intn(30))
		for j := range set {
			set[j] = rng.Uint64()
		}
		sets[i] = set
	}
	sets[13] = nil // empty sets exercise the sentinel path
	for _, workers := range []int{0, 1, 3, 16, 200} {
		got, _ := h.SketchAll(len(sets), func(dst []Item, i int) []Item { return append(dst, sets[i]...) }, workers)
		if len(got) != len(sets) {
			t.Fatalf("workers=%d: %d sketches for %d sets", workers, len(got), len(sets))
		}
		for i, set := range sets {
			want := h.Sketch(set)
			for j := range want {
				if got[i][j] != want[j] {
					t.Fatalf("workers=%d: SketchAll[%d][%d] = %d, Sketch = %d",
						workers, i, j, got[i][j], want[j])
				}
			}
		}
	}
}

func TestSketchAllEmpty(t *testing.T) {
	h, _ := NewHasher(8, 1)
	if got, _ := h.SketchAll(0, func(dst []Item, _ int) []Item { return dst }, 4); len(got) != 0 {
		t.Errorf("SketchAll(0) returned %d sketches", len(got))
	}
}

// TestSketchAllBackingIsolated verifies the shared-arena sketches do
// not alias: appending to one sketch must not clobber its neighbor.
func TestSketchAllBackingIsolated(t *testing.T) {
	h, _ := NewHasher(4, 2)
	out, _ := h.SketchAll(2, func(dst []Item, i int) []Item { return append(dst, Item(i+1)) }, 1)
	next := append(Sketch(nil), out[1]...)
	grown := append(out[0], 999)
	_ = grown
	for j := range next {
		if out[1][j] != next[j] {
			t.Fatal("append on sketch 0 overwrote sketch 1 (missing capacity cap)")
		}
	}
}

func TestSketchIntoWrongWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SketchInto with wrong width must panic")
		}
	}()
	h, _ := NewHasher(4, 5)
	h.SketchInto([]Item{1}, make(Sketch, 3))
}

func TestAgreementWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Agreement across widths must panic")
		}
	}()
	Sketch{1, 2}.Agreement(Sketch{1})
}

func TestHash2Hash3Distinguish(t *testing.T) {
	if Hash2(1, 2) == Hash2(2, 1) {
		t.Error("Hash2 must be order-sensitive")
	}
	if Hash2(Hash2(1, 2), 3) == Hash2(Hash2(3, 2), 1) {
		t.Error("a triple's hash must be order-sensitive")
	}
}

// TestHash2MatchesByteAtATime holds Hash2, which folds the steps of an
// operand's four zero top bytes into one multiply, to byte-at-a-time
// FNV-1a: on random operands with each half zero or not, and at the
// edges of the zero-top-half case.
func TestHash2MatchesByteAtATime(t *testing.T) {
	edges := []uint64{0, 1<<32 - 1, 1 << 32, ^uint64(0)}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 5000; i++ {
		r, s := rng.Uint64(), rng.Uint64()
		as := []uint64{r, r & (1<<32 - 1), r &^ (1<<32 - 1), 0}
		bs := []uint64{s, s & (1<<32 - 1), s &^ (1<<32 - 1), 0}
		if i == 0 {
			as, bs = edges, edges
		}
		for _, a := range as {
			for _, b := range bs {
				if got, want := Hash2(a, b), referenceHash2(a, b); got != want {
					t.Fatalf("Hash2(%#x, %#x) = %#x, byte at a time %#x", a, b, got, want)
				}
			}
		}
	}
}

func BenchmarkSketch100Items(b *testing.B) {
	h, _ := NewHasher(64, 1)
	set := make([]Item, 100)
	rng := rand.New(rand.NewSource(1))
	for i := range set {
		set[i] = rng.Uint64()
	}
	dst := make(Sketch, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.SketchInto(set, dst)
	}
}

// TestSketchMatchesNaive pins the blocked SketchInto loop to the
// definitional implementation — per-item, per-permutation Apply with a
// running minimum — across set sizes straddling the 64-item block
// boundary. The blocked loop must be bit-exact.
func TestSketchMatchesNaive(t *testing.T) {
	h, err := NewHasher(8, 99)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for _, n := range []int{0, 1, 7, 63, 64, 65, 128, 200} {
		set := make([]Item, n)
		for i := range set {
			set[i] = rng.Uint64()
		}
		naive := make(Sketch, h.K())
		for i := range naive {
			naive[i] = EmptySentinel
		}
		for _, x := range set {
			for i, p := range h.perms {
				if v := p.Apply(x); v < naive[i] {
					naive[i] = v
				}
			}
		}
		got := h.Sketch(set)
		for i := range naive {
			if got[i] != naive[i] {
				t.Errorf("n=%d coord %d: blocked %d, naive %d", n, i, got[i], naive[i])
			}
		}
	}
}

// TestSketchOddWidthMatchesNaive: SketchInto walks permutations in
// pairs, an odd width's last one paired with itself; each coordinate is
// still the minimum of its own permutation's Apply over the set.
func TestSketchOddWidthMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 3, 5} {
		h, err := NewHasher(k, int64(k))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 5, 64, 65} {
			set := make([]Item, n)
			for i := range set {
				set[i] = rng.Uint64()
			}
			got := h.Sketch(set)
			for i, p := range h.perms {
				m := uint64(EmptySentinel)
				for _, x := range set {
					m = min(m, p.Apply(x))
				}
				if got[i] != m {
					t.Errorf("k=%d n=%d coord %d: %d, naive %d", k, n, i, got[i], m)
				}
			}
		}
	}
}

// TestApplyPermMatchesModChain pins the fused reduction against the
// two-step addMod(mulMod(...)) chain it replaced: on random inputs, on
// every combination of field edges, and where the unreduced sum lands
// on p or p+1.
func TestApplyPermMatchesModChain(t *testing.T) {
	const p = MersennePrime61
	edges := []uint64{0, 1, 1 << 60, p - 2, p - 1}
	var cases [][3]uint64 // a, b, xr
	for _, a := range edges {
		for _, b := range edges {
			for _, xr := range edges {
				cases = append(cases, [3]uint64{a, b, xr})
			}
		}
	}
	cases = append(cases,
		[3]uint64{1, 1, p - 1}, [3]uint64{1, 2, p - 1}, [3]uint64{1, 2, p - 2}, // x + b = p, p+1, p
		[3]uint64{1, 1<<60 - 1, 1 << 60}, [3]uint64{1, 1 << 60, 1 << 60}, // 2^61−1, 2^61
		[3]uint64{2, p - 1, 1 << 60}, [3]uint64{2, p - 2, 1 << 60}, // 2^61 folds to 1: p, p−1
	)
	rng := rand.New(rand.NewSource(123))
	for i := 0; i < 200000; i++ {
		a := 1 + uint64(rng.Int63n(MersennePrime61-1))
		b := uint64(rng.Int63n(MersennePrime61))
		xr := reduce(rng.Uint64())
		cases = append(cases, [3]uint64{a, b, xr})
	}
	for _, c := range cases {
		a, b, xr := c[0], c[1], c[2]
		if got, want := applyPerm(a, b, xr), addMod(mulMod(a, xr), b); got != want {
			t.Fatalf("applyPerm(%d,%d,%d) = %d, want %d", a, b, xr, got, want)
		}
	}
}
