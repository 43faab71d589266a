// Package telemetry is the framework's always-on observability
// subsystem: atomic counters and gauges, fixed-bucket lock-free
// histograms, lightweight nested stage spans, and a registry that
// renders Prometheus-style text and JSON snapshots (optionally over
// HTTP, see http.go). It is stdlib-only and allocation-conscious —
// nothing in the hot paths allocates, and every metric type is safe
// for concurrent writers.
//
// # Nil fast path
//
// Every method on every type is safe on a nil receiver and does
// nothing: a nil *Registry hands out nil *Counter/*Gauge/*Histogram
// values and nil spans, so instrumented code is written once —
//
//	reg.Counter("kv_server_parse_errors_total").Inc()
//
// — and compiles to a single predictable branch when telemetry is
// disabled. The overhead contract (DESIGN.md §11) is enforced by
// BenchmarkTelemetryOverhead in internal/kvstore: the instrumented
// kvstore command hot path must stay within 3% of the nil-registry
// path.
//
// # Naming conventions
//
// Metric names follow the Prometheus style: subsystem prefix, snake
// case, unit suffix, `_total` for counters. Labels ride inside the
// name string — `kv_server_commands_total{cmd="get"}` — which keeps
// the registry a flat map and label handling out of the hot path
// (callers pre-resolve one metric per label value).
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous integer value (active connections,
// queue depth, …).
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (use negative deltas to decrement).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current gauge value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is an atomic float64 value with additive updates — used
// for physical quantities (joules, watt-hours) accumulated off the hot
// path. Add is a CAS loop, so keep it out of per-operation code.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set stores the value. No-op on a nil receiver.
func (g *FloatGauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add accumulates delta into the gauge.
func (g *FloatGauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry owns a flat namespace of metrics and a log of completed
// root spans. Metric handles are get-or-create and stable: resolve
// them once (registration takes a mutex) and update them lock-free
// forever after. A nil *Registry is the disabled state — it hands out
// nil metrics and nil spans, all of whose methods no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	fgauges  map[string]*FloatGauge
	hists    map[string]*Histogram

	spans        []SpanSnapshot
	spansDropped int64
	start        time.Time
}

// maxRootSpans bounds the completed-span log; older roots are dropped
// (and counted) so a long-lived server cannot grow without bound.
const maxRootSpans = 256

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		fgauges:  make(map[string]*FloatGauge),
		hists:    make(map[string]*Histogram),
		start:    time.Now(),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named integer gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// FloatGauge returns the named float gauge, creating it on first use.
func (r *Registry) FloatGauge(name string) *FloatGauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.fgauges[name]
	if !ok {
		g = &FloatGauge{}
		r.fgauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use. Later calls under the same name reuse
// the existing histogram and ignore bounds (names identify metrics).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// recordSpan appends a completed root span to the bounded span log.
func (r *Registry) recordSpan(s SpanSnapshot) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxRootSpans {
		copy(r.spans, r.spans[1:])
		r.spans = r.spans[:maxRootSpans-1]
		r.spansDropped++
	}
	r.spans = append(r.spans, s)
}

// Snapshot captures a consistent point-in-time view of every metric
// and the completed-span log. The snapshot is independent of the live
// registry (safe to serialize or retain). A nil registry
// yields an empty, non-nil snapshot.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.UptimeSec = time.Since(r.start).Seconds()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = float64(g.Value())
	}
	for name, g := range r.fgauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	s.Spans = append([]SpanSnapshot(nil), r.spans...)
	s.SpansDropped = r.spansDropped
	return s
}

// sortedKeys returns map keys in deterministic order for rendering.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
