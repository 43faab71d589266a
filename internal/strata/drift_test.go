package strata

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pareto/internal/sketch"
)

// driftFixture hand-builds a frozen stratification with k strata of
// width-w sketches, where every base member of stratum s equals that
// stratum's center exactly (coverage C₀ = 1), so drift values are
// exact closed-form fractions.
func driftFixture(t *testing.T, k, width, membersPer int) (*Stratification, []sketch.Sketch) {
	t.Helper()
	centers := make([]Center, k)
	centerSketch := make([]sketch.Sketch, k)
	for s := 0; s < k; s++ {
		vals := make([][]uint64, width)
		sk := make(sketch.Sketch, width)
		for a := 0; a < width; a++ {
			v := uint64(1000*s + a + 1)
			vals[a] = []uint64{v}
			sk[a] = v
		}
		centers[s] = Center{Values: vals}
		centerSketch[s] = sk
	}
	var sketches []sketch.Sketch
	var assign []int
	members := make([][]int, k)
	for s := 0; s < k; s++ {
		for m := 0; m < membersPer; m++ {
			members[s] = append(members[s], len(sketches))
			sketches = append(sketches, append(sketch.Sketch(nil), centerSketch[s]...))
			assign = append(assign, s)
		}
	}
	st := &Stratification{
		Result:   &Result{Assign: assign, Members: members, Centers: centers},
		Sketches: sketches,
	}
	return st, centerSketch
}

// mutated returns a copy of base with the first nMiss coordinates
// replaced by novel values never used elsewhere in the fixture.
func mutated(base sketch.Sketch, nMiss int, salt uint64) sketch.Sketch {
	s := append(sketch.Sketch(nil), base...)
	for a := 0; a < nMiss; a++ {
		s[a] = (1 << 40) + salt*64 + uint64(a)
	}
	return s
}

func TestDriftExactThreshold(t *testing.T) {
	st, centerSketch := driftFixture(t, 2, 8, 3)
	d, err := NewDriftTracker(st, DriftConfig{Threshold: 0.125})
	if err != nil {
		t.Fatal(err)
	}
	// One ingest matching center 0 in 4 of 8 attributes: coverage
	// falls from 1 to (3·8+4)/(4·8), drift exactly 4/32 = 0.125.
	rec := mutated(centerSketch[0], 4, 7)
	stratum, miss, err := d.Ingest(rec)
	if err != nil {
		t.Fatal(err)
	}
	if stratum != 0 || miss != 4 {
		t.Fatalf("Ingest = (%d, %d), want (0, 4)", stratum, miss)
	}
	if got := d.Drift(0); got != 0.125 {
		t.Fatalf("Drift(0) = %v, want exactly 0.125", got)
	}
	// Exactly-at-threshold is dirty (inclusive comparison).
	if !d.Dirty(0) {
		t.Fatal("stratum 0 at threshold not dirty; comparison must be inclusive")
	}
	if d.Dirty(1) {
		t.Fatal("untouched stratum 1 reported dirty")
	}
	if got := d.DirtyStrata(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("DirtyStrata = %v, want [0]", got)
	}

	// A hair above threshold: same state, stricter tracker stays clean.
	d2, err := NewDriftTracker(st, DriftConfig{Threshold: math.Nextafter(0.125, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d2.Ingest(rec); err != nil {
		t.Fatal(err)
	}
	if d2.Dirty(0) {
		t.Fatal("stratum 0 dirty strictly below threshold")
	}
}

func TestDriftAllCleanAllDirty(t *testing.T) {
	st, centerSketch := driftFixture(t, 3, 8, 2)

	// Threshold 0: every stratum is dirty before any ingest at all.
	d0, err := NewDriftTracker(st, DriftConfig{Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := d0.DirtyStrata(); len(got) != 3 {
		t.Fatalf("threshold 0: DirtyStrata = %v, want all 3", got)
	}

	// Positive threshold, ingests that match their center exactly:
	// coverage stays at C₀, everything stays clean.
	d, err := NewDriftTracker(st, DriftConfig{Threshold: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		for i := 0; i < 10; i++ {
			got, miss, err := d.Ingest(centerSketch[s])
			if err != nil {
				t.Fatal(err)
			}
			if got != s || miss != 0 {
				t.Fatalf("Ingest clone of center %d = (%d, %d)", s, got, miss)
			}
		}
	}
	if got := d.DirtyStrata(); got != nil {
		t.Fatalf("matching ingests: DirtyStrata = %v, want none", got)
	}

	// Heavy novel traffic into every stratum: all dirty.
	for s := 0; s < 3; s++ {
		for i := 0; i < 20; i++ {
			if _, _, err := d.Ingest(mutated(centerSketch[s], 4, uint64(100+20*s+i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := d.DirtyStrata(); len(got) != 3 {
		t.Fatalf("novel ingests: DirtyStrata = %v, want all 3", got)
	}
}

func TestDriftResetOnRestratify(t *testing.T) {
	st, centerSketch := driftFixture(t, 2, 8, 3)
	d, err := NewDriftTracker(st, DriftConfig{Threshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// Drift both strata.
	var ingested []sketch.Sketch
	for s := 0; s < 2; s++ {
		for i := 0; i < 4; i++ {
			rec := mutated(centerSketch[s], 3, uint64(10*s+i))
			if _, _, err := d.Ingest(rec); err != nil {
				t.Fatal(err)
			}
			ingested = append(ingested, rec)
		}
	}
	drift1Before := d.Drift(1)
	if !d.Dirty(0) || !d.Dirty(1) {
		t.Fatalf("expected both strata dirty, drift = %v, %v", d.Drift(0), d.Drift(1))
	}

	// Re-stratify stratum 0 only: fold its ingested records into the
	// membership, keep the center, and reset the tracker for it.
	st2, _ := driftFixture(t, 2, 8, 3)
	for i := 0; i < 4; i++ {
		st2.Members[0] = append(st2.Members[0], len(st2.Sketches))
		st2.Sketches = append(st2.Sketches, ingested[i])
		st2.Assign = append(st2.Assign, 0)
	}
	if err := d.Reset(st2, []int{0}); err != nil {
		t.Fatal(err)
	}
	if got := d.added[0]; got != 0 {
		t.Fatalf("Added(0) after reset = %d, want 0", got)
	}
	if got := d.Drift(0); got != 0 {
		t.Fatalf("Drift(0) after reset = %v, want 0 (baseline refrozen)", got)
	}
	if d.Dirty(0) {
		t.Fatal("stratum 0 dirty immediately after reset")
	}
	// The untouched stratum keeps its accumulated drift and counters.
	if got := d.Drift(1); got != drift1Before {
		t.Fatalf("Drift(1) changed across Reset(0): %v → %v", drift1Before, got)
	}
	if got := d.added[1]; got != 4 {
		t.Fatalf("Added(1) = %d, want 4", got)
	}

	// Drift accumulates again from the fresh baseline.
	if _, _, err := d.Ingest(mutated(centerSketch[0], 8, 999)); err != nil {
		t.Fatal(err)
	}
	if d.Drift(0) <= 0 {
		t.Fatal("Drift(0) did not accumulate after reset")
	}
}

// TestDriftLongStream checks the statistic stays exact and bounded
// over a stream orders of magnitude larger than the base stratification:
// no counter overflow, no baseline staleness, and drift matches the
// closed form throughout.
func TestDriftLongStream(t *testing.T) {
	const (
		width      = 4
		membersPer = 2
		n          = 200_000
	)
	st, centerSketch := driftFixture(t, 2, width, membersPer)
	d, err := NewDriftTracker(st, DriftConfig{Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Alternate perfect matches with half-novel records, cycling the
	// novel values through a small fixed set so counter maps stay
	// bounded no matter how long the stream runs.
	miss := 0
	for i := 0; i < n; i++ {
		rec := centerSketch[0]
		if i%2 == 1 {
			rec = mutated(centerSketch[0], 2, uint64(i%16))
			miss += 2
		}
		if _, _, err := d.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.added[0]; got != n {
		t.Fatalf("Added(0) = %d, want %d", got, n)
	}
	want := float64(miss) / (float64(membersPer+n) * width)
	if got := d.Drift(0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Drift(0) = %v, want %v", got, want)
	}
	// Counter maps stay bounded: each attribute saw the center value
	// plus at most 16 novel values.
	for a := 0; a < width; a++ {
		if len(d.counters.row(0, a)) > 17 {
			t.Fatalf("attr %d counter has %d entries, want ≤ 17", a, len(d.counters.row(0, a)))
		}
	}
	// Refreeze drains the baseline: no staleness survives.
	st2, _ := driftFixture(t, 2, width, membersPer)
	if err := d.Reset(st2, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if d.Drift(0) != 0 || d.added[0] != 0 {
		t.Fatalf("after reset: drift %v added %d", d.Drift(0), d.added[0])
	}
}

func TestDriftIngestErrors(t *testing.T) {
	st, _ := driftFixture(t, 2, 8, 2)
	d, err := NewDriftTracker(st, DriftConfig{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Ingest(make(sketch.Sketch, 5)); err == nil {
		t.Fatal("width-mismatched ingest accepted")
	}
	if err := d.Reset(st, []int{7}); err == nil {
		t.Fatal("out-of-range reset accepted")
	}
}

// TestDriftAssignMatchesStratifier pins the ingest assignment to the
// stratifier's: nearest frozen center, ties toward the lowest index.
func TestDriftAssignMatchesStratifier(t *testing.T) {
	st, centerSketch := driftFixture(t, 3, 8, 2)
	d, err := NewDriftTracker(st, DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Equidistant to centers 1 and 2 (4 matches each), farther from 0:
	// the tie must break to stratum 1.
	rec := make(sketch.Sketch, 8)
	copy(rec[:4], centerSketch[1][:4])
	copy(rec[4:], centerSketch[2][4:])
	stratum, miss, err := d.Ingest(rec)
	if err != nil {
		t.Fatal(err)
	}
	if stratum != 1 || miss != 4 {
		t.Fatalf("Ingest = (%d, %d), want (1, 4) by lowest-index tie-break", stratum, miss)
	}
}

// TestRefreezeModeMatchesClusterAndReset is the contract of the
// count-once refreeze: over seeded streams, RefreezeMode(s, l) returns
// the center Cluster gives for stratum s's members at K = 1 and leaves
// the tracker deep-equal to one that went through Reset on the
// re-clustered stratification — counters, frozen centers, scan matrix
// and baselines alike. Values come from a small universe so counts tie
// and the top-L order matters; l varies across rounds so the scan
// matrix both regrows (l above the frozen row) and keeps a wider stride
// than a later center needs.
func TestRefreezeModeMatchesClusterAndReset(t *testing.T) {
	const k, width = 3, 8
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		st, centerSketch := driftFixture(t, k, width, 4)
		got, err := NewDriftTracker(st, DriftConfig{Threshold: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewDriftTracker(st, DriftConfig{Threshold: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		for round, l := range []int{2, 1, 5, 3, 3, 1} {
			for i := 0; i < 30; i++ {
				// Near one center, with a few coordinates drawn from a
				// shared pool of five values per attribute.
				rec := append(sketch.Sketch(nil), centerSketch[rng.Intn(k)]...)
				for m := rng.Intn(4); m > 0; m-- {
					a := rng.Intn(width)
					rec[a] = uint64(5000 + 10*a + rng.Intn(5))
				}
				s, _, err := got.Ingest(rec)
				if err != nil {
					t.Fatal(err)
				}
				if s2, _, _ := want.Ingest(rec); s2 != s {
					t.Fatalf("seed %d round %d: trackers diverged on ingest (%d vs %d)", seed, round, s, s2)
				}
				st.Members[s] = append(st.Members[s], len(st.Sketches))
				st.Sketches = append(st.Sketches, rec)
				st.Assign = append(st.Assign, s)
			}
			s := round % k
			sub := make([]sketch.Sketch, len(st.Members[s]))
			for i, r := range st.Members[s] {
				sub[i] = st.Sketches[r]
			}
			res, err := Cluster(sub, Config{K: 1, L: l, Seed: seed, MaxIter: 2 * (round % 2)})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Members[0]) != len(sub) {
				t.Fatalf("K = 1 kept %d of %d members", len(res.Members[0]), len(sub))
			}
			st.Centers[s] = res.Centers[0]
			if err := want.Reset(st, []int{s}); err != nil {
				t.Fatal(err)
			}
			center, err := got.RefreezeMode(s, l)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(center, res.Centers[0]) {
				t.Fatalf("seed %d round %d (L = %d): center %v, Cluster gives %v", seed, round, l, center, res.Centers[0])
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d round %d (L = %d): tracker differs from one that went through Reset", seed, round, l)
			}
		}
	}
}

func TestRefreezeModeErrors(t *testing.T) {
	st, _ := driftFixture(t, 2, 4, 2)
	st.Members[1] = nil
	st.Assign = st.Assign[:2]
	st.Sketches = st.Sketches[:2]
	d, err := NewDriftTracker(st, DriftConfig{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.RefreezeMode(2, 3); err == nil {
		t.Error("out-of-range stratum accepted")
	}
	if _, err := d.RefreezeMode(0, 0); err == nil {
		t.Error("L = 0 accepted")
	}
	if _, err := d.RefreezeMode(1, 3); err == nil {
		t.Error("empty stratum accepted")
	}
}
