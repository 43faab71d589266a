package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark's own wrappers
// around a call into a layer. Parent is the id of the span that caused
// it (0 for a root); Rep identifies the repetition, so every span of
// one unit of work shares an identifier.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Rep     int    `json:"rep"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// is the timed pass: every method is a no-op, so the same workload code
// runs with tracing off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is a handle on an open span; nil when tracing is off.
type spanRef struct {
	t  *tracer
	id int
}

// start opens a span under parent (nil parent makes a root).
func (t *tracer) start(parent *spanRef, name string, rep int) *spanRef {
	if t == nil {
		return nil
	}
	now := time.Since(t.t0).Nanoseconds()
	return t.record(parent, name, rep, now, now)
}

// add records a span whose interval the program reported itself (a
// Plan.Stages entry, a Stats duration) instead of one timed here.
func (t *tracer) add(parent *spanRef, name string, rep int, start time.Time, d time.Duration) *spanRef {
	if t == nil {
		return nil
	}
	s := start.Sub(t.t0).Nanoseconds()
	return t.record(parent, name, rep, s, s+d.Nanoseconds())
}

func (t *tracer) record(parent *spanRef, name string, rep int, start, end int64) *spanRef {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent.idOrZero(), Name: name, Rep: rep, StartNs: start, EndNs: end})
	return &spanRef{t: t, id: id}
}

func (s *spanRef) idOrZero() int {
	if s == nil {
		return 0
	}
	return s.id
}

func (s *spanRef) end() {
	if s == nil {
		return
	}
	now := time.Since(s.t.t0).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans[s.id-1].EndNs = now
	s.t.mu.Unlock()
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes the spans as a JSON array.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

type interval struct{ lo, hi int64 }

// unionNs is the total length covered by the intervals; overlapping
// (parallel) intervals count once.
func unionNs(ivs []interval) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total int64
	var cur interval
	open := false
	for _, iv := range ivs {
		if iv.hi <= iv.lo {
			continue
		}
		switch {
		case !open:
			cur, open = iv, true
		case iv.lo <= cur.hi:
			if iv.hi > cur.hi {
				cur.hi = iv.hi
			}
		default:
			total += cur.hi - cur.lo
			cur = iv
		}
	}
	if open {
		total += cur.hi - cur.lo
	}
	return total
}

// spanSet answers the questions the per-layer metrics ask of one
// repetition's spans.
type spanSet []span

func (ss spanSet) ofRep(rep int) spanSet {
	var out spanSet
	for _, s := range ss {
		if s.Rep == rep {
			out = append(out, s)
		}
	}
	return out
}

// unionMs is the time covered by all spans of the given name.
func (ss spanSet) unionMs(name string) float64 {
	var ivs []interval
	for _, s := range ss {
		if s.Name == name {
			ivs = append(ivs, interval{s.StartNs, s.EndNs})
		}
	}
	return float64(unionNs(ivs)) / 1e6
}

// selfNs is a span's duration minus the part of that interval its
// child spans cover.
func (ss spanSet) selfNs(id int) int64 {
	var self span
	var kids []interval
	for _, s := range ss {
		if s.ID == id {
			self = s
		}
		if s.Parent == id {
			kids = append(kids, interval{s.StartNs, s.EndNs})
		}
	}
	for i := range kids {
		if kids[i].lo < self.StartNs {
			kids[i].lo = self.StartNs
		}
		if kids[i].hi > self.EndNs {
			kids[i].hi = self.EndNs
		}
	}
	return (self.EndNs - self.StartNs) - unionNs(kids)
}

// selfMsByName sums selfNs over every span of the given name.
func (ss spanSet) selfMsByName(name string) float64 {
	var total int64
	for _, s := range ss {
		if s.Name == name {
			total += ss.selfNs(s.ID)
		}
	}
	return float64(total) / 1e6
}
