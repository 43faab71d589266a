package strata

import (
	"fmt"
	"math/rand"
)

// StratifiedSample draws a sample of exactly size records (indices)
// from the strata membership lists, allocating proportionally to
// stratum sizes (largest-remainder) and sampling without replacement
// inside each stratum. Cochran's classical result — that a stratified
// sample tracks the underlying distribution far better than a simple
// random sample — is why the progressive-sampling profiler uses these
// samples: they are representative of the framework's final
// representative partitions (paper §III-E).
func StratifiedSample(members [][]int, size int, seed int64) ([]int, error) {
	n := 0
	for _, m := range members {
		n += len(m)
	}
	if size < 0 || size > n {
		return nil, fmt.Errorf("strata: sample size %d out of [0, %d]", size, n)
	}
	if size == 0 {
		return nil, nil
	}
	rng := rand.New(rand.NewSource(seed))
	// Proportional quotas.
	quota := make([]int, len(members))
	type rem struct {
		s int
		f float64
	}
	rems := make([]rem, 0, len(members))
	assigned := 0
	for s, m := range members {
		exact := float64(size) * float64(len(m)) / float64(n)
		quota[s] = int(exact)
		if quota[s] > len(m) {
			quota[s] = len(m)
		}
		assigned += quota[s]
		rems = append(rems, rem{s, exact - float64(quota[s])})
	}
	for assigned < size {
		best := -1
		for i := range rems {
			s := rems[i].s
			if quota[s] >= len(members[s]) {
				continue
			}
			if best < 0 || rems[i].f > rems[best].f {
				best = i
			}
		}
		if best < 0 {
			break
		}
		quota[rems[best].s]++
		rems[best].f = -1
		assigned++
	}
	// Sample without replacement within each stratum.
	out := make([]int, 0, size)
	var scratch []int
	for s, m := range members {
		q := quota[s]
		if q == 0 {
			continue
		}
		if q == len(m) {
			out = append(out, m...)
			continue
		}
		scratch = permPrefixInto(rng, scratch, len(m), q)
		for _, i := range scratch {
			out = append(out, m[i])
		}
	}
	return out, nil
}

// permPrefixInto is rng.Perm(n)[:q] written into buf, which is grown
// only when q outgrows it: the same inside-out shuffle, so the same
// draws from rng and the same prefix, without an n-int permutation per
// call. Step i < q reads buf[j] for some j ≤ i; below i that was
// written by this pass, and at j = i the next line overwrites it, so
// what an earlier call left in buf does not matter. Step i ≥ q writes
// rng.Perm's m[i], past the prefix, and m[j] = i; only the second can
// land in the prefix, and no later step copies m[i] into it.
func permPrefixInto(rng *rand.Rand, buf []int, n, q int) []int {
	if cap(buf) < q {
		buf = make([]int, q)
	}
	buf = buf[:q]
	for i := range buf {
		j := rng.Intn(i + 1)
		buf[i] = buf[j]
		buf[j] = i
	}
	for i := q; i < n; i++ {
		if j := rng.Intn(i + 1); j < q {
			buf[j] = i
		}
	}
	return buf
}
