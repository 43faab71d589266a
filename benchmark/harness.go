package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"pareto/internal/partitioner"
)

// sample holds the metrics of one unit of work, by metric name.
type sample map[string]float64

// unit is one workload, set up and ready: rep does the workload's fixed
// unit of work once (one pipeline repetition, or the whole closed
// loop) and is what the harness times; audit runs untimed afterwards
// and adds the exact counts and determinism checks that would
// otherwise sit inside the timed region.
type unit interface {
	rep(i int) (sample, error)
	audit(i int, s sample) error
	close() error
}

// workload names one benchmark workload and how to set it up.
type workload struct {
	name string
	why  string
	// warm is true for the pipeline workloads, which run one untimed
	// repetition as part of set-up. The looped workloads are stateful
	// or warm themselves up inside setup.
	warm bool
	// reps is how many units of work the timed pass runs; the traced
	// pass runs at most tracedReps.
	reps  func(sz sizes, seconds int) int
	setup func(r *run) (unit, error)
}

// account counts every operation the benchmark attempts — store calls
// through the Store wrapper, polls, cycles, HTTP requests, correctness
// checks — and every one that failed, so a failure cannot be dropped
// silently.
type account struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string
}

// op records one attempted operation and its outcome.
func (a *account) op(what string, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.attempted++
	if err != nil {
		a.failed++
		if len(a.failures) < 20 {
			a.failures = append(a.failures, fmt.Sprintf("%s: %v", what, err))
		}
	}
}

// check records one correctness check.
func (a *account) check(name string, ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf(format, args...)
	}
	a.op("check "+name, err)
}

// run is the context of one pass (timed or traced) over one workload.
type run struct {
	seed    int64
	sz      sizes
	seconds int
	workers int
	// tr is nil in the timed pass; registries are attached only when
	// traced is true.
	tr     *tracer
	traced bool
	acct   *account
	// rep is the current repetition's id and cur the span that wrapper
	// spans (store calls, profile calls) attach to. Both change only
	// between stages, never while a stage's goroutines run.
	rep int
	cur *spanRef
	// tmp is a scratch directory inside the working directory.
	tmp string
}

// stage times fn and, when tracing, records it as a span that becomes
// the parent of the wrapper spans fn causes.
func (r *run) stage(name string, fn func() error) (time.Duration, error) {
	sp := r.tr.start(r.cur, name, r.rep)
	prev := r.cur
	if sp != nil {
		r.cur = sp
	}
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	r.cur = prev
	sp.end()
	return d, err
}

// leaf times fn as a span under the current stage. Unlike stage it
// does not become the parent of later spans, so a stage's goroutines
// may call it concurrently.
func (r *run) leaf(name string, fn func() error) (time.Duration, error) {
	sp := r.tr.start(r.cur, name, r.rep)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	sp.end()
	return d, err
}

// storeWrapper decorates a partitioner.Store: every call is counted
// toward fail_frac and, when tracing, recorded as a span named
// prefix+".write" or prefix+".read".
type storeWrapper struct {
	base   partitioner.Store
	r      *run
	prefix string
	mu     sync.Mutex
	// bytesWritten sums the record bytes handed to WritePartition.
	bytesWritten int64
}

func (s *storeWrapper) WritePartition(id int, records [][]byte) error {
	sp := s.r.tr.start(s.r.cur, s.prefix+".write", s.r.rep)
	err := s.base.WritePartition(id, records)
	sp.end()
	s.r.acct.op(fmt.Sprintf("WritePartition(%d)", id), err)
	n := int64(0)
	for _, rec := range records {
		n += int64(len(rec))
	}
	s.mu.Lock()
	s.bytesWritten += n
	s.mu.Unlock()
	return err
}

func (s *storeWrapper) ReadPartition(id int) ([][]byte, error) {
	sp := s.r.tr.start(s.r.cur, s.prefix+".read", s.r.rep)
	recs, err := s.base.ReadPartition(id)
	sp.end()
	s.r.acct.op(fmt.Sprintf("ReadPartition(%d)", id), err)
	return recs, err
}

// WriteGroup forwards the base store's write grouping so PlaceParallel
// fans out exactly as it would without the wrapper; a base without
// groups gets one group, which keeps its writes sequential.
func (s *storeWrapper) WriteGroup(id int) int {
	if g, ok := s.base.(partitioner.WriteGrouper); ok {
		return g.WriteGroup(id)
	}
	return 0
}

// passResult is everything one pass produced.
type passResult struct {
	samples []sample
	setups  []float64
	spans   []span
}

// setupBudget is the time the timed pass spends on repeating a short
// set-up beyond sizes.Setups times.
const setupBudget = 2 * time.Second

// tracedReps bounds the repetitions of the traced pass: enough for a
// median, since one repetition's wall time is noisier than the tracing
// overhead it is compared for.
const tracedReps = 3

// runPass sets the workload up, warms it, and runs its repetitions,
// timing each from outside. The timed pass sets up sz.Setups times or
// more (see sizes) and keeps the last, so that setup_s is a median; the
// traced pass sets up once and runs at most tracedReps repetitions.
func runPass(w workload, seed int64, sz sizes, seconds int, traced bool, acct *account) (*passResult, error) {
	tmp, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	debug.FreeOSMemory()
	r := &run{seed: seed, sz: sz, seconds: seconds, workers: benchWorkers(), traced: traced, acct: acct, tmp: tmp}
	if traced {
		r.tr = newTracer()
	}
	res := &passResult{}
	setups, maxSetups, reps := sz.Setups, sz.MaxSetups, w.reps(sz, seconds)
	if traced {
		setups, maxSetups = 1, 1
		if reps > tracedReps {
			reps = tracedReps
		}
	}
	var u unit
	var spent time.Duration
	for k := 0; k < setups || (k < maxSetups && spent < setupBudget); k++ {
		if u != nil {
			if err := u.close(); err != nil {
				return nil, fmt.Errorf("%s: closing set-up %d: %w", w.name, k, err)
			}
		}
		r.rep, r.cur = -1, nil
		t0 := time.Now()
		u, err = w.setup(r)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		if w.warm {
			s, err := u.rep(-1)
			if err == nil {
				err = u.audit(-1, s)
			}
			if err != nil {
				u.close()
				return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
			}
		}
		spent += time.Since(t0)
		res.setups = append(res.setups, time.Since(t0).Seconds())
	}
	defer u.close()
	for i := 0; i < reps; i++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r.rep = i
		root := r.tr.start(nil, "rep", i)
		r.cur = root
		t0 := time.Now()
		s, err := u.rep(i)
		e2e := time.Since(t0)
		root.end()
		r.cur = nil
		if err != nil {
			return nil, fmt.Errorf("%s: rep %d: %w", w.name, i, err)
		}
		runtime.ReadMemStats(&m1)
		s["e2e_s"] = e2e.Seconds()
		s["alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		s["go.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
		s["go.num_gc"] = float64(m1.NumGC - m0.NumGC)
		// Heap the process holds from the OS after the repetition: the
		// scavenger returns memory slowly, so this is close to the peak
		// since runPass began (which starts from a released heap).
		s["go.heap_peak_mb"] = float64(m1.HeapSys-m1.HeapReleased) / (1 << 20)
		if root != nil {
			ss := spanSet(r.tr.snapshot()).ofRep(i)
			s["trace.unattributed_frac"] = float64(ss.selfNs(root.id)) / float64(e2e.Nanoseconds())
		}
		if err := u.audit(i, s); err != nil {
			return nil, fmt.Errorf("%s: audit %d: %w", w.name, i, err)
		}
		res.samples = append(res.samples, s)
	}
	res.spans = r.tr.snapshot()
	return res, nil
}

// loopOps is a looped workload's operation count in this pass: the
// traced pass runs fewer, the timed pass scales with --seconds.
func (r *run) loopOps(timed, traced int) int {
	if r.traced {
		return traced
	}
	return scaled(timed, r.seconds, minOps)
}

// benchWorkers is the worker count the benchmark passes everywhere:
// GOMAXPROCS, which main pins to min(nproc, 4).
func benchWorkers() int { return runtime.GOMAXPROCS(0) }

// scaled turns a repetition count calibrated for a 10-second run into
// the count for the requested run length. It never goes below floor,
// unless the calibrated count itself is below it (the tests' sizes).
func scaled(n, seconds, floor int) int {
	if n < floor {
		floor = n
	}
	n = (n*seconds + 5) / 10
	if n < floor {
		n = floor
	}
	return n
}
