package telemetry

import (
	"fmt"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram over int64 values (latencies
// in nanoseconds, sizes in bytes, depths in items). The hot path —
// Observe — is lock-free: a binary search over the immutable bounds
// plus two atomic adds. Snapshots are consistent enough for monitoring
// (counts and sum are read without a global lock; a concurrent Observe
// may straddle the read).
type Histogram struct {
	// bounds are the inclusive upper bounds of each bucket, ascending.
	// An implicit overflow bucket catches values above the last bound.
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1
	sum    atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// LatencyBuckets returns the standard duration bounds in nanoseconds:
// powers of two from 256 ns to ~8.6 s. Sub-microsecond resolution
// matters because the kvstore command hot path itself is sub-µs.
func LatencyBuckets() []int64 {
	out := make([]int64, 26)
	for i := range out {
		out[i] = 256 << i
	}
	return out
}

// WideLatencyBuckets returns latency bounds for control-loop cycles
// rather than RPCs: powers of two from 64 µs to ~34 minutes in
// nanoseconds. Replanning cycles span microseconds (idle tick) to
// minutes (full replan at scale), which LatencyBuckets' 256 ns–16 s
// range would truncate.
func WideLatencyBuckets() []int64 {
	out := make([]int64, 25)
	for i := range out {
		out[i] = 65536 << i
	}
	return out
}

// DepthBuckets returns small-integer bounds for queue/pipeline depths:
// powers of two from 1 to 16384.
func DepthBuckets() []int64 {
	out := make([]int64, 15)
	for i := range out {
		out[i] = 1 << i
	}
	return out
}

// bucketIdx returns the index of the bucket receiving v.
func (h *Histogram) bucketIdx(v int64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.counts[h.bucketIdx(v)].Add(1)
	h.sum.Add(v)
}

// ObserveN records n observations of value v in one shot — the batched
// form used when several equal-cost operations are attributed at once
// (e.g. a pipelined command batch's mean per-command latency).
func (h *Histogram) ObserveN(v int64, n int64) {
	if h == nil || n <= 0 {
		return
	}
	h.counts[h.bucketIdx(v)].Add(n)
	h.sum.Add(v * n)
}

// Snapshot captures the histogram's current state. Nil-safe: a nil
// histogram yields a zero snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds, // immutable, safe to share
		Counts: make([]int64, len(h.counts)),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram: bucket
// counts (one extra overflow bucket past the last bound), total count
// and sum.
type HistogramSnapshot struct {
	Bounds []int64 `json:"bounds,omitempty"`
	Counts []int64 `json:"counts,omitempty"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
}

// Mean returns the mean observed value (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-th quantile (q in [0, 1]) by linear
// interpolation within the containing bucket. Values in the overflow
// bucket report the last bound (a lower bound on the true value).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Counts) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var seen float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := seen + float64(c)
		if rank <= next || i == len(s.Counts)-1 {
			if i >= len(s.Bounds) {
				// Overflow bucket: the last bound is all we know.
				return float64(s.Bounds[len(s.Bounds)-1])
			}
			lo := float64(0)
			if i > 0 {
				lo = float64(s.Bounds[i-1])
			}
			hi := float64(s.Bounds[i])
			frac := (rank - seen) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		seen = next
	}
	return float64(s.Bounds[len(s.Bounds)-1])
}
