package strata

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pareto/internal/sketch"
)

// plantedSketches builds n sketches of the given width drawn from k
// well-separated planted clusters: cluster c uses coordinate values in
// a disjoint band, with noise coordinates resampled uniformly.
func plantedSketches(n, width, k int, noise float64, seed int64) ([]sketch.Sketch, []int) {
	rng := rand.New(rand.NewSource(seed))
	sketches := make([]sketch.Sketch, n)
	truth := make([]int, n)
	// Each cluster has a prototype sketch; members copy it and corrupt
	// a noise fraction of coordinates.
	protos := make([]sketch.Sketch, k)
	for c := range protos {
		p := make(sketch.Sketch, width)
		for a := range p {
			p[a] = uint64(c*1_000_000 + rng.Intn(1000))
		}
		protos[c] = p
	}
	for i := range sketches {
		c := i % k
		truth[i] = c
		s := append(sketch.Sketch(nil), protos[c]...)
		for a := range s {
			if rng.Float64() < noise {
				s[a] = rng.Uint64()
			}
		}
		sketches[i] = s
	}
	return sketches, truth
}

func TestClusterValidation(t *testing.T) {
	good := []sketch.Sketch{{1, 2}, {3, 4}}
	cases := []struct {
		sk  []sketch.Sketch
		cfg Config
	}{
		{nil, Config{K: 2, L: 1}},
		{good, Config{K: 0, L: 1}},
		{good, Config{K: 2, L: 0}},
		{[]sketch.Sketch{{}}, Config{K: 1, L: 1}},
		{[]sketch.Sketch{{1, 2}, {3}}, Config{K: 1, L: 1}},
	}
	for i, c := range cases {
		if _, err := Cluster(c.sk, c.cfg); err == nil {
			t.Errorf("case %d: invalid input accepted", i)
		}
	}
}

func TestClusterRecoversPlantedClusters(t *testing.T) {
	sketches, truth := plantedSketches(300, 16, 3, 0.1, 5)
	res, err := Cluster(sketches, Config{K: 3, L: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("expected convergence on well-separated clusters")
	}
	// Compute cluster purity: each found cluster should be dominated
	// by one true cluster.
	for c, members := range res.Members {
		if len(members) == 0 {
			continue
		}
		counts := map[int]int{}
		for _, i := range members {
			counts[truth[i]]++
		}
		best := 0
		for _, n := range counts {
			if n > best {
				best = n
			}
		}
		purity := float64(best) / float64(len(members))
		if purity < 0.9 {
			t.Errorf("cluster %d purity %.2f < 0.9", c, purity)
		}
	}
}

func TestClusterDeterministic(t *testing.T) {
	sketches, _ := plantedSketches(100, 8, 4, 0.2, 6)
	r1, err := Cluster(sketches, Config{K: 4, L: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Cluster(sketches, Config{K: 4, L: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Assign, r2.Assign) {
		t.Error("same seed must give identical clustering")
	}
}

func TestClusterParallelMatchesSerial(t *testing.T) {
	sketches, _ := plantedSketches(200, 8, 4, 0.3, 6)
	serial, err := Cluster(sketches, Config{K: 4, L: 2, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Cluster(sketches, Config{K: 4, L: 2, Seed: 3, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Assign, parallel.Assign) {
		t.Error("worker count must not change the result")
	}
}

// TestClusterSameAtEveryWorkerCount: the center update is split by
// attribute across the pool (10 attributes over 4 and 7 workers leave
// uneven and empty ranges), and the clustering must not depend on it,
// on a large input and on one of the size the online replanner
// re-clusters.
func TestClusterSameAtEveryWorkerCount(t *testing.T) {
	for _, n := range []int{2000, 60} {
		sketches := lowUniverseSketches(n, 10, 6, int64(n))
		cfg := Config{K: 12, L: 2, Seed: 5, Workers: 1}
		want, err := Cluster(sketches, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want.Iterations < 3 {
			t.Fatalf("n=%d: only %d rounds, the delta update is not exercised", n, want.Iterations)
		}
		for _, workers := range []int{2, 4, 7} {
			cfg.Workers = workers
			got, err := Cluster(sketches, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Assign, want.Assign) || !reflect.DeepEqual(got.Centers, want.Centers) ||
				got.Cost != want.Cost || got.Iterations != want.Iterations {
				t.Errorf("n=%d workers=%d: clustering differs from one worker's", n, workers)
			}
			for i := range want.IterStats {
				if got.IterStats[i].Moved != want.IterStats[i].Moved {
					t.Errorf("n=%d workers=%d: round %d moved %d records, want %d",
						n, workers, i, got.IterStats[i].Moved, want.IterStats[i].Moved)
				}
			}
			if got.Busy <= 0 {
				t.Errorf("n=%d workers=%d: no busy time reported", n, workers)
			}
		}
	}
}

func TestClusterKCappedAtN(t *testing.T) {
	sketches := []sketch.Sketch{{1, 2}, {3, 4}}
	res, err := Cluster(sketches, Config{K: 10, L: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.K() != 2 {
		t.Errorf("K = %d, want capped 2", res.K())
	}
	for _, a := range res.Assign {
		if a < 0 || a >= 2 {
			t.Errorf("assignment %d out of range", a)
		}
	}
}

func TestClusterSingleCluster(t *testing.T) {
	sketches, _ := plantedSketches(50, 8, 2, 0.2, 6)
	res, err := Cluster(sketches, Config{K: 1, L: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Members[0]) != 50 {
		t.Errorf("single cluster holds %d members, want all 50", len(res.Members[0]))
	}
}

func TestClusterEveryRecordAssigned(t *testing.T) {
	sketches, _ := plantedSketches(123, 8, 5, 0.4, 8)
	res, err := Cluster(sketches, Config{K: 5, L: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, m := range res.Members {
		total += len(m)
	}
	if total != 123 {
		t.Errorf("members total %d, want 123", total)
	}
	if len(res.Assign) != 123 {
		t.Errorf("%d assignments, want 123", len(res.Assign))
	}
}

func TestCompositeLReducesZeroMatch(t *testing.T) {
	// With a huge value universe, L=1 centers leave many records with
	// zero matching attributes; larger L must reduce the final
	// mismatch cost (the motivation for compositeKModes, §III-C).
	sketches, _ := plantedSketches(400, 16, 4, 0.5, 10)
	cost := func(l int) int64 {
		res, err := Cluster(sketches, Config{K: 4, L: l, Seed: 20})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cost
	}
	c1, c4 := cost(1), cost(4)
	if c4 > c1 {
		t.Errorf("L=4 cost %d exceeds L=1 cost %d; composite centers should match more", c4, c1)
	}
}

func TestTopL(t *testing.T) {
	freq := map[uint64]int{10: 5, 20: 5, 30: 1, 40: 9}
	got := topL(freq, 2)
	if !reflect.DeepEqual(got, []uint64{40, 10}) {
		t.Errorf("topL = %v, want [40 10] (count desc, value asc tiebreak)", got)
	}
	if got := topL(freq, 10); len(got) != 4 {
		t.Errorf("topL over-long = %v", got)
	}
	if got := topL(nil, 3); len(got) != 0 {
		t.Errorf("topL(nil) = %v", got)
	}
}

func TestReferenceDistance(t *testing.T) {
	c := Center{Values: [][]uint64{{1, 2}, {3}, {4}}}
	if d := referenceDistance(sketch.Sketch{2, 3, 4}, &c); d != 0 {
		t.Errorf("full match distance %d", d)
	}
	if d := referenceDistance(sketch.Sketch{9, 3, 4}, &c); d != 1 {
		t.Errorf("one mismatch distance %d", d)
	}
	if d := referenceDistance(sketch.Sketch{9, 9, 9}, &c); d != 3 {
		t.Errorf("no match distance %d", d)
	}
}

// ---------------------------------------------------------------------------
// Reference implementation: the seed repo's naive compositeKModes loop,
// kept verbatim (serial assignment, full center rebuild per round) as
// the oracle the optimized hot path must match bit-exactly.
// ---------------------------------------------------------------------------

// referenceDistance counts attributes of s that match none of the
// center's candidate values — the naive composite mismatch metric.
func referenceDistance(s sketch.Sketch, c *Center) int {
	d := 0
	for a, v := range s {
		if !c.matches(a, v) {
			d++
		}
	}
	return d
}

// referenceUpdateCenters recomputes each center as the per-attribute
// top-L values among its members, rebuilding every frequency map from
// scratch.
func referenceUpdateCenters(sketches []sketch.Sketch, assign []int, k, width, l int) []Center {
	counts := make([]map[uint64]int, k*width)
	for i := range counts {
		counts[i] = make(map[uint64]int)
	}
	for i, s := range sketches {
		base := assign[i] * width
		for a, v := range s {
			counts[base+a][v]++
		}
	}
	centers := make([]Center, k)
	for c := 0; c < k; c++ {
		vals := make([][]uint64, width)
		for a := 0; a < width; a++ {
			vals[a] = topL(counts[c*width+a], l)
		}
		centers[c] = Center{Values: vals}
	}
	return centers
}

// referenceCluster is the naive serial clustering loop. It shares
// initCenters/reseedEmpty with the production path (they are not hot)
// and mirrors its exit semantics: on MaxIter exhaustion the trailing
// update is skipped so Centers stay consistent with Assign/Cost.
func referenceCluster(sketches []sketch.Sketch, cfg Config) (*Result, error) {
	n := len(sketches)
	if n == 0 {
		return nil, fmt.Errorf("strata: no sketches to cluster")
	}
	width := len(sketches[0])
	k := cfg.K
	if k > n {
		k = n
	}
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = DefaultMaxIter
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	centers := initCenters(sketches, k, rng)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	res := &Result{}
	for iter := 0; iter < maxIter; iter++ {
		res.Iterations = iter + 1
		changed := false
		var cost int64
		for i := range sketches {
			best, bestDist := 0, int(^uint(0)>>1)
			for c := range centers {
				// First-lowest-index wins ties: only a strictly
				// smaller distance displaces the incumbent.
				if d := referenceDistance(sketches[i], &centers[c]); d < bestDist {
					best, bestDist = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
			cost += int64(bestDist)
		}
		res.Cost = cost
		if !changed {
			res.Converged = true
			break
		}
		if iter == maxIter-1 {
			break
		}
		centers = referenceUpdateCenters(sketches, assign, k, width, cfg.L)
		reseedEmpty(sketches, centers, assign, rng)
	}
	res.Assign = assign
	res.Centers = centers
	res.Members = make([][]int, k)
	for i, a := range assign {
		res.Members[a] = append(res.Members[a], i)
	}
	return res, nil
}

// lowUniverseSketches draws sketch coordinates from a tiny value
// universe, forcing heavy ties in top-L selection and frequent
// equidistant centers — the adversarial regime for the optimized
// tie-breaking and padding.
func lowUniverseSketches(n, width, universe int, seed int64) []sketch.Sketch {
	rng := rand.New(rand.NewSource(seed))
	out := make([]sketch.Sketch, n)
	for i := range out {
		s := make(sketch.Sketch, width)
		for a := range s {
			s[a] = uint64(rng.Intn(universe))
		}
		out[i] = s
	}
	return out
}

// TestClusterMatchesReference sweeps n/K/L/width/seed combinations
// (covering the bitmask path K∈[1,64], the scan path K>64, L larger
// than the distinct-value count, and MaxIter exhaustion) and
// asserts the optimized hot path reproduces the reference bit-exactly:
// same assignments, same centers, same cost, same iteration count.
func TestClusterMatchesReference(t *testing.T) {
	type tc struct {
		name     string
		sketches []sketch.Sketch
		cfg      Config
	}
	planted := func(n, width, k int, noise float64, seed int64) []sketch.Sketch {
		s, _ := plantedSketches(n, width, k, noise, seed)
		return s
	}
	cases := []tc{
		{"mask-K1", planted(120, 8, 3, 0.3, 12), Config{K: 1, L: 2, Seed: 43}},
		{"mask-K2-L1", planted(90, 4, 2, 0.4, 2), Config{K: 2, L: 1, Seed: 5}},
		{"mask-K3", planted(180, 8, 3, 0.2, 1), Config{K: 3, L: 2, Seed: 11}},
		{"mask-K7", planted(210, 10, 7, 0.3, 13), Config{K: 7, L: 3, Seed: 47}},
		{"mask-K8", planted(250, 16, 8, 0.3, 3), Config{K: 8, L: 3, Seed: 7}},
		{"mask-K32", planted(400, 12, 16, 0.25, 4), Config{K: 32, L: 2, Seed: 13}},
		{"mask-K64", planted(300, 8, 10, 0.3, 5), Config{K: 64, L: 2, Seed: 17}},
		{"scan-K-above-64", planted(300, 6, 12, 0.3, 6), Config{K: 70, L: 2, Seed: 19}},
		{"ties-low-universe", lowUniverseSketches(220, 10, 3, 7), Config{K: 12, L: 4, Seed: 23}},
		{"L-exceeds-universe", lowUniverseSketches(150, 6, 2, 8), Config{K: 9, L: 8, Seed: 29}},
		{"maxiter-exhausted", lowUniverseSketches(260, 12, 4, 9), Config{K: 16, L: 2, Seed: 31, MaxIter: 3}},
		{"maxiter-1", planted(120, 8, 4, 0.5, 10), Config{K: 8, L: 2, Seed: 37, MaxIter: 1}},
		{"workers-1", planted(200, 8, 5, 0.3, 11), Config{K: 10, L: 3, Seed: 41, Workers: 1}},
		{"workers-many", planted(200, 8, 5, 0.3, 11), Config{K: 10, L: 3, Seed: 41, Workers: 13}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := referenceCluster(c.sketches, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Cluster(c.sketches, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Assign, want.Assign) {
				t.Fatal("Assign diverges from reference")
			}
			if got.Cost != want.Cost {
				t.Fatalf("Cost = %d, reference %d", got.Cost, want.Cost)
			}
			if got.Iterations != want.Iterations || got.Converged != want.Converged {
				t.Fatalf("loop shape (%d, %v), reference (%d, %v)",
					got.Iterations, got.Converged, want.Iterations, want.Converged)
			}
			if !centersEqual(got.Centers, want.Centers) {
				t.Fatal("Centers diverge from reference")
			}
			if !reflect.DeepEqual(got.Members, want.Members) {
				t.Fatal("Members diverge from reference")
			}
		})
	}
}

// centersEqual compares centers treating nil and empty candidate lists
// as equal (topL(empty) returns an empty slice either way).
func centersEqual(a, b []Center) bool {
	if len(a) != len(b) {
		return false
	}
	for c := range a {
		if len(a[c].Values) != len(b[c].Values) {
			return false
		}
		for at := range a[c].Values {
			va, vb := a[c].Values[at], b[c].Values[at]
			if len(va) != len(vb) {
				return false
			}
			for j := range va {
				if va[j] != vb[j] {
					return false
				}
			}
		}
	}
	return true
}

// TestClusterMaxIterCentersConsistent is the regression test for the
// MaxIter-exit inconsistency: the returned Centers must be the centers
// the final Assign/Cost were computed against, so re-deriving the
// nearest center of every record from Result.Centers reproduces
// Result.Assign and summing the distances reproduces Result.Cost.
func TestClusterMaxIterCentersConsistent(t *testing.T) {
	sketches := lowUniverseSketches(300, 12, 4, 3)
	res, err := Cluster(sketches, Config{K: 16, L: 2, Seed: 1, MaxIter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("test needs a MaxIter-exhausted run; pick noisier data")
	}
	var cost int64
	for i, s := range sketches {
		best, bestDist := 0, int(^uint(0)>>1)
		for c := range res.Centers {
			if d := referenceDistance(s, &res.Centers[c]); d < bestDist {
				best, bestDist = c, d
			}
		}
		if res.Assign[i] != best {
			t.Fatalf("record %d assigned to %d but Centers say %d", i, res.Assign[i], best)
		}
		cost += int64(bestDist)
	}
	if cost != res.Cost {
		t.Fatalf("re-derived cost %d, Result.Cost %d", cost, res.Cost)
	}
}

// TestClusterIterStats checks the per-round profile surfaced for
// planner-overhead reporting.
func TestClusterIterStats(t *testing.T) {
	sketches, _ := plantedSketches(200, 8, 4, 0.2, 6)
	res, err := Cluster(sketches, Config{K: 4, L: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IterStats) != res.Iterations {
		t.Fatalf("%d IterStats for %d iterations", len(res.IterStats), res.Iterations)
	}
	if res.IterStats[0].Moved != 200 {
		t.Errorf("first round moved %d records, want all 200", res.IterStats[0].Moved)
	}
	last := res.IterStats[len(res.IterStats)-1]
	if res.Converged && last.Moved != 0 {
		t.Errorf("converged run's final round moved %d records", last.Moved)
	}
	if last.Update != 0 {
		t.Errorf("final round has update time %v, want none (no trailing update)", last.Update)
	}
}

func BenchmarkCluster1000x32K8(b *testing.B) {
	sketches, _ := plantedSketches(1000, 32, 8, 0.2, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cluster(sketches, Config{K: 8, L: 2, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// matches reports whether coordinate value v matches attribute a.
func (c *Center) matches(a int, v uint64) bool {
	for _, w := range c.Values[a] {
		if w == v {
			return true
		}
	}
	return false
}

// topL returns up to l keys of freq with the highest counts,
// deterministically (count desc, value asc).
func topL(freq map[uint64]int, l int) []uint64 {
	var sel []valCount
	return appendTopL(make([]uint64, 0, min(l, len(freq))), freq, l, &sel)
}

// recodeAdversarialInputs are sketches chosen to break a per-call
// recode of coordinate values onto dense codes: empty-set sentinels
// (the largest uint64) beside their neighbour, values that agree in
// their low 32 bits, and count ties whose first-seen order is the
// reverse of value order.
func recodeAdversarialInputs() map[string][]sketch.Sketch {
	const n, width = 300, 10
	rng := rand.New(rand.NewSource(32))
	sentinel := lowUniverseSketches(n, width, 5, 33)
	for i, s := range sentinel {
		for a := range s {
			switch {
			case i%7 == 0:
				s[a] = sketch.EmptySentinel
			case rng.Intn(10) == 0:
				s[a] = sketch.EmptySentinel - uint64(rng.Intn(2))
			}
		}
	}
	low32 := make([]sketch.Sketch, n)
	for i := range low32 {
		s := make(sketch.Sketch, width)
		for a := range s {
			s[a] = uint64(rng.Intn(5))<<32 | 0xDEADBEEF
			if rng.Intn(8) == 0 {
				s[a] = 0xFFFFFFFF<<32 | 0xDEADBEEF
			}
		}
		low32[i] = s
	}
	const universe = 6 // divides n: every value occurs equally often
	reverse := make([]sketch.Sketch, n)
	for i := range reverse {
		s := make(sketch.Sketch, width)
		for a := range s {
			s[a] = uint64(universe-1-(i+a)%universe) * 0x9E3779B97F4A7C15
		}
		reverse[i] = s
	}
	return map[string][]sketch.Sketch{"sentinel": sentinel, "low32": low32, "reverse-ties": reverse}
}

// TestClusterRecodeMatchesReference holds Cluster to the value-level
// reference on recodeAdversarialInputs, at K = 7, 8 and 64 (mask path)
// and 65 (scan path), at one to four workers.
func TestClusterRecodeMatchesReference(t *testing.T) {
	for name, sketches := range recodeAdversarialInputs() {
		for _, k := range []int{7, 8, 64, 65} {
			cfg := Config{K: k, L: 2, Seed: int64(k)}
			want, err := referenceCluster(sketches, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want.Iterations < 2 {
				t.Fatalf("%s K=%d: %d round, the center update is not exercised", name, k, want.Iterations)
			}
			for workers := 1; workers <= 4; workers++ {
				cfg.Workers = workers
				got, err := Cluster(sketches, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Assign, want.Assign) || got.Cost != want.Cost ||
					got.Iterations != want.Iterations || got.Converged != want.Converged ||
					!centersEqual(got.Centers, want.Centers) || !reflect.DeepEqual(got.Members, want.Members) {
					t.Errorf("%s K=%d workers=%d: clustering diverges from the reference", name, k, workers)
				}
			}
		}
	}
}
