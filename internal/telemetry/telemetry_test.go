package telemetry

import (
	"sync"
	"testing"
)

// TestNilFastPath: every operation on a nil registry and the nil
// metrics it hands out must be a safe no-op — this is the disabled
// path compiled into the hot loops.
func TestNilFastPath(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Counter("c").Add(5)
	if got := r.Counter("c").Value(); got != 0 {
		t.Errorf("nil counter value = %d", got)
	}
	r.Gauge("g").Set(3)
	r.Gauge("g").Add(-1)
	if got := r.Gauge("g").Value(); got != 0 {
		t.Errorf("nil gauge value = %d", got)
	}
	r.FloatGauge("f").Set(1.5)
	r.FloatGauge("f").Add(2.5)
	if got := r.FloatGauge("f").Value(); got != 0 {
		t.Errorf("nil float gauge value = %v", got)
	}
	h := r.Histogram("h", LatencyBuckets())
	h.Observe(123)
	h.ObserveN(55, 10)
	if s := h.Snapshot(); s.Count != 0 {
		t.Errorf("nil histogram count = %d", s.Count)
	}
	sp := r.StartSpan("root")
	sp.Child("child").End()
	sp.End()
	snap := r.Snapshot()
	if snap == nil {
		t.Fatal("nil registry snapshot is nil")
	}
	if len(snap.Counters) != 0 || len(snap.Spans) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", snap)
	}
}

// TestGetOrCreateIdentity: the registry must hand out the same metric
// for the same name, and distinct metrics for distinct names.
func TestGetOrCreateIdentity(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("same-name counters differ")
	}
	if r.Counter("a") == r.Counter("b") {
		t.Error("distinct-name counters alias")
	}
	if r.Gauge("a") != r.Gauge("a") {
		t.Error("same-name gauges differ")
	}
	if r.Histogram("h", DepthBuckets()) != r.Histogram("h", LatencyBuckets()) {
		t.Error("same-name histograms differ (bounds must be ignored after creation)")
	}
}

// TestCounterGaugeValues exercises basic arithmetic.
func TestCounterGaugeValues(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	g := r.Gauge("depth")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
	f := r.FloatGauge("joules")
	f.Add(1.25)
	f.Add(2.5)
	if got := f.Value(); got != 3.75 {
		t.Errorf("float gauge = %v, want 3.75", got)
	}
	f.Set(-1)
	if got := f.Value(); got != -1 {
		t.Errorf("float gauge after Set = %v, want -1", got)
	}
}

// TestConcurrentWriters hammers every metric type from many
// goroutines; run under -race this is the data-race proof, and the
// totals prove no update is lost.
func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("c")
			g := r.Gauge("g")
			f := r.FloatGauge("f")
			h := r.Histogram("h", DepthBuckets())
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				f.Add(0.5)
				h.Observe(int64(i % 64))
				if i%100 == 0 {
					sp := r.StartSpan("loop")
					sp.Child("inner").End()
					sp.End()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("g").Value(); got != workers*perWorker {
		t.Errorf("gauge = %d, want %d", got, workers*perWorker)
	}
	if got := r.FloatGauge("f").Value(); got != workers*perWorker*0.5 {
		t.Errorf("float gauge = %v, want %v", got, workers*perWorker*0.5)
	}
	if got := r.Histogram("h", nil).Snapshot().Count; got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestSnapshotIsolation: a snapshot must not change when the registry
// moves on.
func TestSnapshotIsolation(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(1)
	r.Histogram("h", DepthBuckets()).Observe(3)
	snap := r.Snapshot()
	r.Counter("c").Add(100)
	r.Histogram("h", nil).Observe(5)
	if snap.Counters["c"] != 1 {
		t.Errorf("snapshot counter mutated: %d", snap.Counters["c"])
	}
	if snap.Histograms["h"].Count != 1 {
		t.Errorf("snapshot histogram mutated: %d", snap.Histograms["h"].Count)
	}
}
