package partitioner

import (
	"math"
	"math/rand"
	"testing"
)

// plantedStrata builds k strata whose sizes follow the given counts;
// record indices are interleaved so placement cannot rely on index
// order accidentally.
func plantedStrata(counts []int) ([][]int, []int, int) {
	n := 0
	for _, c := range counts {
		n += c
	}
	members := make([][]int, len(counts))
	assign := make([]int, n)
	idx := 0
	// Round-robin interleave across strata.
	remaining := append([]int(nil), counts...)
	for idx < n {
		for s := range remaining {
			if remaining[s] > 0 {
				members[s] = append(members[s], idx)
				assign[idx] = s
				remaining[s]--
				idx++
			}
		}
	}
	return members, assign, n
}

func TestPartitionValidation(t *testing.T) {
	members, _, _ := plantedStrata([]int{10, 10})
	if _, err := Partition(Representative, members, []int{5, 5}); err == nil {
		t.Error("size sum mismatch accepted")
	}
	if _, err := Partition(Representative, members, []int{25, -5}); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := Partition(Representative, members, nil); err == nil {
		t.Error("no partitions accepted")
	}
	if _, err := Partition(Scheme(42), members, []int{20}); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestRepresentativeExactSizesAndCoverage(t *testing.T) {
	members, _, n := plantedStrata([]int{100, 300, 50, 150})
	sizes := []int{200, 150, 150, 100}
	a, err := Partition(Representative, members, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(n); err != nil {
		t.Fatal(err)
	}
	got := a.Sizes()
	for j := range sizes {
		if got[j] != sizes[j] {
			t.Errorf("partition %d size %d, want %d", j, got[j], sizes[j])
		}
	}
}

func TestRepresentativeMatchesGlobalMix(t *testing.T) {
	counts := []int{400, 200, 100, 300}
	members, assign, n := plantedStrata(counts)
	sizes := []int{400, 300, 200, 100}
	a, err := Partition(Representative, members, sizes)
	if err != nil {
		t.Fatal(err)
	}
	global := make([]float64, len(counts))
	for s, c := range counts {
		global[s] = float64(c) / float64(n)
	}
	mix := StratumMix(a, assign, len(counts))
	for j, m := range mix {
		for s := range m {
			if math.Abs(m[s]-global[s]) > 0.05 {
				t.Errorf("partition %d stratum %d fraction %.3f, global %.3f",
					j, s, m[s], global[s])
			}
		}
	}
}

func TestRepresentativeHandlesManySmallStrata(t *testing.T) {
	// More strata than partition capacity quotas: spill path.
	counts := make([]int, 50)
	for i := range counts {
		counts[i] = 3
	}
	members, _, n := plantedStrata(counts)
	sizes := []int{40, 40, 40, 30}
	a, err := Partition(Representative, members, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(n); err != nil {
		t.Fatal(err)
	}
	for j, s := range a.Sizes() {
		if s != sizes[j] {
			t.Errorf("partition %d size %d, want %d", j, s, sizes[j])
		}
	}
}

func TestRepresentativeZeroSizePartition(t *testing.T) {
	// The optimizer may assign zero records to a node (α < 1 regimes).
	members, _, n := plantedStrata([]int{30, 30})
	sizes := []int{60, 0}
	a, err := Partition(Representative, members, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(n); err != nil {
		t.Fatal(err)
	}
	if len(a.Parts[1]) != 0 {
		t.Errorf("zero partition got %d records", len(a.Parts[1]))
	}
}

func TestSimilarTogetherGroupsStrata(t *testing.T) {
	counts := []int{100, 100, 100, 100}
	members, assign, n := plantedStrata(counts)
	sizes := []int{100, 100, 100, 100}
	a, err := Partition(SimilarTogether, members, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(n); err != nil {
		t.Fatal(err)
	}
	// With aligned sizes, each partition must be pure: exactly one stratum.
	mix := StratumMix(a, assign, len(counts))
	for j, m := range mix {
		pure := false
		for _, f := range m {
			if f == 1 {
				pure = true
			}
		}
		if !pure {
			t.Errorf("partition %d mix %v, want pure", j, m)
		}
	}
}

func TestSimilarTogetherUnevenSizes(t *testing.T) {
	counts := []int{120, 80, 40}
	members, assign, n := plantedStrata(counts)
	sizes := []int{90, 90, 60}
	a, err := Partition(SimilarTogether, members, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(n); err != nil {
		t.Fatal(err)
	}
	// Entropy of similar-together partitions must not exceed that of
	// representative partitions (the whole point of the scheme).
	rep, err := Partition(Representative, members, sizes)
	if err != nil {
		t.Fatal(err)
	}
	hSim := meanEntropy(StratumMix(a, assign, len(counts)))
	hRep := meanEntropy(StratumMix(rep, assign, len(counts)))
	if hSim > hRep {
		t.Errorf("similar-together entropy %.3f exceeds representative %.3f", hSim, hRep)
	}
}

func meanEntropy(mix [][]float64) float64 {
	var total float64
	for _, m := range mix {
		var h float64
		for _, f := range m {
			if f > 0 {
				h -= f * math.Log(f)
			}
		}
		total += h
	}
	return total / float64(len(mix))
}

func TestEqualSizes(t *testing.T) {
	cases := []struct {
		n, p int
		want []int
	}{
		{10, 2, []int{5, 5}},
		{10, 3, []int{4, 3, 3}},
		{2, 4, []int{1, 1, 0, 0}},
		{0, 2, []int{0, 0}},
	}
	for _, c := range cases {
		got := EqualSizes(c.n, c.p)
		for j := range got {
			if got[j] != c.want[j] {
				t.Errorf("EqualSizes(%d,%d) = %v, want %v", c.n, c.p, got, c.want)
				break
			}
		}
	}
}

func TestAssignmentValidateCatchesCorruption(t *testing.T) {
	a := &Assignment{Parts: [][]int{{0, 1}, {1}}}
	if err := a.Validate(3); err == nil {
		t.Error("duplicate record accepted")
	}
	b := &Assignment{Parts: [][]int{{0, 5}}}
	if err := b.Validate(3); err == nil {
		t.Error("out-of-range record accepted")
	}
	c := &Assignment{Parts: [][]int{{0}}}
	if err := c.Validate(3); err == nil {
		t.Error("missing records accepted")
	}
}

func TestPartitionRandomizedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 40; trial++ {
		k := 1 + rng.Intn(20)
		counts := make([]int, k)
		n := 0
		for i := range counts {
			counts[i] = rng.Intn(100)
			n += counts[i]
		}
		if n == 0 {
			counts[0] = 1
			n = 1
		}
		members, _, _ := plantedStrata(counts)
		p := 1 + rng.Intn(8)
		// Random sizes summing to n.
		sizes := make([]int, p)
		left := n
		for j := 0; j < p-1; j++ {
			sizes[j] = rng.Intn(left + 1)
			left -= sizes[j]
		}
		sizes[p-1] = left
		for _, scheme := range []Scheme{Representative, SimilarTogether} {
			a, err := Partition(scheme, members, sizes)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, scheme, err)
			}
			if err := a.Validate(n); err != nil {
				t.Fatalf("trial %d %v: %v", trial, scheme, err)
			}
			for j, s := range a.Sizes() {
				if s != sizes[j] {
					t.Fatalf("trial %d %v: partition %d size %d, want %d",
						trial, scheme, j, s, sizes[j])
				}
			}
		}
	}
}

func TestSchemeString(t *testing.T) {
	if Representative.String() != "representative" || SimilarTogether.String() != "similar-together" {
		t.Error("scheme names wrong")
	}
	if Scheme(9).String() == "" {
		t.Error("unknown scheme must print")
	}
}

// StratumMix returns, for each partition, the fraction of its records
// drawn from each stratum — the quantity Representative placement
// equalizes across partitions. assign maps record → stratum.
func StratumMix(a *Assignment, assign []int, k int) [][]float64 {
	mix := make([][]float64, len(a.Parts))
	for j, part := range a.Parts {
		counts := make([]float64, k)
		for _, r := range part {
			counts[assign[r]]++
		}
		if len(part) > 0 {
			for s := range counts {
				counts[s] /= float64(len(part))
			}
		}
		mix[j] = counts
	}
	return mix
}
