package strata

import (
	"math"
	"math/rand"
	"testing"

	"pareto/internal/sketch"
)

func TestStratifiedSampleProportions(t *testing.T) {
	// Strata of sizes 600/300/100: a 100-record sample should hold
	// roughly 60/30/10.
	members := make([][]int, 3)
	id := 0
	for s, n := range []int{600, 300, 100} {
		for i := 0; i < n; i++ {
			members[s] = append(members[s], id)
			id++
		}
	}
	sample, err := StratifiedSample(members, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(sample) != 100 {
		t.Fatalf("sample size %d", len(sample))
	}
	counts := make([]int, 3)
	seen := map[int]bool{}
	for _, r := range sample {
		if seen[r] {
			t.Fatal("sampling with replacement detected")
		}
		seen[r] = true
		switch {
		case r < 600:
			counts[0]++
		case r < 900:
			counts[1]++
		default:
			counts[2]++
		}
	}
	want := []int{60, 30, 10}
	for s := range counts {
		if math.Abs(float64(counts[s]-want[s])) > 2 {
			t.Errorf("stratum %d: %d sampled, want ≈%d", s, counts[s], want[s])
		}
	}
}

func TestStratifiedSampleEdgeCases(t *testing.T) {
	members := [][]int{{0, 1, 2}, {}, {3}}
	// Zero sample.
	s, err := StratifiedSample(members, 0, 1)
	if err != nil || len(s) != 0 {
		t.Errorf("zero sample: %v, %v", s, err)
	}
	// Full sample covers everything exactly once.
	s, err = StratifiedSample(members, 4, 1)
	if err != nil || len(s) != 4 {
		t.Fatalf("full sample: %v, %v", s, err)
	}
	seen := map[int]bool{}
	for _, r := range s {
		seen[r] = true
	}
	for i := 0; i < 4; i++ {
		if !seen[i] {
			t.Errorf("record %d missing from full sample", i)
		}
	}
	// Oversized and negative rejected.
	if _, err := StratifiedSample(members, 5, 1); err == nil {
		t.Error("oversized sample accepted")
	}
	if _, err := StratifiedSample(members, -1, 1); err == nil {
		t.Error("negative size accepted")
	}
	// Singleton stratum with size 1 sample.
	s, err = StratifiedSample([][]int{{42}}, 1, 9)
	if err != nil || len(s) != 1 || s[0] != 42 {
		t.Errorf("singleton sample %v, %v", s, err)
	}
}

func TestStratifiedSampleDeterministic(t *testing.T) {
	members := [][]int{{0, 1, 2, 3, 4, 5, 6, 7}, {8, 9, 10, 11}}
	a, err := StratifiedSample(members, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := StratifiedSample(members, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different samples")
		}
	}
}

// TestPermIntoMatchesRandPerm holds the quota-sized shuffle to
// rand.Perm: for every (seed, size, quota) it returns exactly the first
// quota entries of rand.Perm and leaves the generator in the same
// state, with one scratch carried through all of them — the quotas go
// down as well as up, so most prefixes are written over what a larger
// one left behind.
func TestPermIntoMatchesRandPerm(t *testing.T) {
	var scratch []int
	triples := 0
	for seed := int64(1); seed <= 5; seed++ {
		for _, n := range []int{1000, 1, 2, 17, 256, 999, 0, 64, 4096, 63} {
			for _, q := range []int{0, 1, 2, 32, 64, n / 3, n - 1, n} {
				if q < 0 || q > n {
					continue
				}
				ref, rng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				want := ref.Perm(n)[:q]
				scratch = permPrefixInto(rng, scratch, n, q)
				if len(scratch) != q {
					t.Fatalf("seed %d n %d quota %d: %d entries", seed, n, q, len(scratch))
				}
				for i, w := range want {
					if scratch[i] != w {
						t.Fatalf("seed %d n %d quota %d: entry %d is %d, rand.Perm has %d", seed, n, q, i, scratch[i], w)
					}
				}
				if a, b := ref.Int63(), rng.Int63(); a != b {
					t.Fatalf("seed %d n %d quota %d: generator state differs after the shuffle", seed, n, q)
				}
				triples++
			}
		}
	}
	if triples < 250 {
		t.Fatalf("only %d (seed, size, quota) triples", triples)
	}
}

// TestStratifiedSampleMatchesRandPerm draws through StratifiedSample's
// own strata loop: a big stratum first, so the smaller ones reuse its
// scratch, against rand.Perm per stratum from one generator.
func TestStratifiedSampleMatchesRandPerm(t *testing.T) {
	sizes := []int{500, 20, 130, 7, 300}
	members := make([][]int, len(sizes))
	next := 0
	for s, n := range sizes {
		for i := 0; i < n; i++ {
			members[s] = append(members[s], next)
			next += 3
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		const size = 96
		got, err := StratifiedSample(members, size, seed)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		var want []int
		at := 0
		for _, m := range members {
			// The strata hold 52.2, 2.1, 13.6, 0.7 and 31.3 % of the
			// records: whatever the rounding, each quota is how many of
			// the sample's entries fall in the stratum's index range.
			q := 0
			for at+q < len(got) && got[at+q] >= m[0] && got[at+q] <= m[len(m)-1] {
				q++
			}
			for _, i := range rng.Perm(len(m))[:q] {
				want = append(want, m[i])
			}
			at += q
		}
		if len(got) != size || len(want) != size {
			t.Fatalf("seed %d: sample of %d, reference of %d, want %d", seed, len(got), len(want), size)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: sample entry %d is %d, rand.Perm per stratum gives %d", seed, i, got[i], want[i])
			}
		}
	}
}

func TestReseedEmptyRestoresK(t *testing.T) {
	// Adversarial data for K-modes: two records, K=2, but both records
	// identical — one cluster will empty out and must be reseeded
	// rather than silently collapsing.
	sketches := []sketch.Sketch{{1, 2, 3}, {1, 2, 3}, {1, 2, 3}, {1, 2, 3}}
	res, err := Cluster(sketches, Config{K: 2, L: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.K() != 2 {
		t.Errorf("K collapsed to %d", res.K())
	}
	total := 0
	for _, m := range res.Members {
		total += len(m)
	}
	if total != 4 {
		t.Errorf("members %d", total)
	}
}
