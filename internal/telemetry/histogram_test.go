package telemetry

import (
	"math"
	"sync"
	"testing"
)

func TestHistogramBucketPlacement(t *testing.T) {
	h := newHistogram([]int64{10, 100, 1000})
	for _, v := range []int64{0, 5, 10} {
		h.Observe(v) // bucket 0 (≤10)
	}
	h.Observe(11)   // bucket 1
	h.Observe(100)  // bucket 1
	h.Observe(999)  // bucket 2
	h.Observe(1001) // overflow
	s := h.Snapshot()
	want := []int64{3, 2, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Errorf("count = %d, want 7", s.Count)
	}
	if s.Sum != 0+5+10+11+100+999+1001 {
		t.Errorf("sum = %d", s.Sum)
	}
}

func TestHistogramObserveN(t *testing.T) {
	h := newHistogram([]int64{10, 100})
	h.ObserveN(7, 5)
	h.ObserveN(50, 0)  // no-op
	h.ObserveN(50, -3) // no-op
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 35 || s.Counts[0] != 5 {
		t.Errorf("after ObserveN: %+v", s)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]int64{10, 20, 30, 40})
	// 100 uniform values in (0, 40]: quantiles should land near q*40.
	for v := int64(1); v <= 100; v++ {
		h.Observe((v-1)%40 + 1)
	}
	s := h.Snapshot()
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.5, 20, 5},
		{0.9, 36, 5},
		{0.99, 40, 5},
	} {
		got := s.Quantile(tc.q)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("q%.2f = %v, want ~%v", tc.q, got, tc.want)
		}
	}
	// Out-of-range q clamps.
	if got := s.Quantile(-1); got < 0 {
		t.Errorf("q(-1) = %v", got)
	}
	if got := s.Quantile(2); got > 40 {
		t.Errorf("q(2) = %v", got)
	}
	// Empty histogram.
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
	// Overflow-only histogram reports the last bound.
	h2 := newHistogram([]int64{10})
	h2.Observe(1 << 40)
	if got := h2.Snapshot().Quantile(0.5); got != 10 {
		t.Errorf("overflow quantile = %v, want 10", got)
	}
	// Without bounds the one bucket is the overflow bucket, whose lower
	// bound is 0.
	h3 := NewRegistry().Histogram("h", nil)
	h3.Observe(7)
	if got := h3.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("boundless quantile = %v, want 0", got)
	}
}

func TestHistogramConcurrentObservers(t *testing.T) {
	h := newHistogram(LatencyBuckets())
	const workers = 8
	const per = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != workers*per {
		t.Errorf("count = %d, want %d", got, workers*per)
	}
}

func TestBucketPresetsAscending(t *testing.T) {
	for name, bounds := range map[string][]int64{
		"latency":      LatencyBuckets(),
		"wide latency": WideLatencyBuckets(),
		"depth":        DepthBuckets(),
	} {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				t.Errorf("%s bounds not ascending at %d: %v", name, i, bounds)
			}
		}
	}
}
