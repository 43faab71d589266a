// Package distrib runs the stratification pipeline the way paper §IV
// actually deploys it: distributed across workers that communicate
// only through the key-value store.
//
//   - Each worker extracts pivots and computes minhash sketches for its
//     shard of the corpus (the embarrassingly parallel, data-heavy
//     step), and ships the sketches to the master store with pipelined
//     writes — sketches are orders of magnitude smaller than records,
//     which is exactly why the paper centralizes the next step.
//   - A global barrier (fetch-and-increment) separates the phases.
//   - The master clusters the gathered sketches with compositeKModes
//     ("we chose to do the clustering in a centralized manner as the
//     compositeKmodes algorithm is run on the sketches rather than the
//     actual data") and publishes the record→stratum assignment.
//   - Workers fetch the assignment for their shard and return.
//
// The result is bit-identical to the in-process strata.Stratify (same
// seeds, same order), which the tests assert.
//
// # Fault tolerance
//
// Real heterogeneous clusters flap, so the protocol survives worker
// death and connection faults:
//
//   - Each worker writes a per-shard completion marker after shipping
//     its sketches, and re-ships the whole shard (DEL + re-push, which
//     is idempotent as a unit) when a pipeline fails mid-flight.
//   - The coordinator bounds its wait at the sketch barrier
//     (Options.SketchWait). Past the bound it aborts the barrier —
//     releasing live workers immediately instead of letting them burn
//     their timeouts — reads the completion markers, and re-sketches
//     the missing shards locally. Sketching is a pure function of
//     (corpus, hasher), so recovery is bit-identical to what the dead
//     worker would have produced, and a run with up to f dead workers
//     still returns the exact in-process stratification.
//   - Workers treat the sketch barrier as advisory: released by abort,
//     timeout, or even a failed fetch-and-increment, they fall through
//     to polling for the published assignment, which is the
//     authoritative phase-two signal. A run-level abort key stops
//     pollers promptly when the coordinator fails terminally.
package distrib

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"sync"
	"time"

	"pareto/internal/kvstore"
	"pareto/internal/pivots"
	"pareto/internal/sketch"
	"pareto/internal/strata"
	"pareto/internal/telemetry"
)

// Options configures the distributed stratification.
type Options struct {
	// SketchWidth is the minhash width (0 = strata.DefaultSketchWidth).
	SketchWidth int
	// Cluster configures compositeKModes (K required).
	Cluster strata.Config
	// Seed drives the shared hash family; all workers must agree.
	Seed int64
	// PipelineWidth batches sketch shipping: how many RPUSH commands
	// may be in flight before the pipeline flushes (0 = 128). Since
	// records travel many-per-command (MaxShipBytes), the width bounds
	// commands, not records, exactly as before the batching overhaul.
	PipelineWidth int
	// MaxShipBytes caps the record payload packed into one variadic
	// RPUSH command, so a single command can never blow up the server's
	// read arena (0 = 1 MiB).
	MaxShipBytes int
	// KeyPrefix namespaces this run's keys on the store (0 = "strat").
	KeyPrefix string

	// SketchWait bounds the coordinator's wait for workers at the
	// sketch barrier; past it the coordinator aborts the barrier and
	// recovers missing shards locally (0 = 30s). Workers wait up to
	// 2×SketchWait so the coordinator's recovery fires first.
	SketchWait time.Duration
	// AssignWait bounds each worker's poll for the published
	// assignment (0 = 30s).
	AssignWait time.Duration
	// PollInterval is the initial store poll interval for barrier and
	// assignment waits; polls back off exponentially (0 = 1ms).
	PollInterval time.Duration
	// ShipRetries is how many extra times a worker re-ships its whole
	// shard after a failed pipeline — RPUSHes are not individually
	// retryable (kvstore.ErrNotRetryable), but DEL + re-push of the
	// shard is idempotent as a unit (0 = 2, negative = none).
	ShipRetries int
	// DisableRecovery makes any worker failure terminal for the whole
	// run (the pre-fault-tolerance behavior).
	DisableRecovery bool

	// Telemetry, when non-nil, records protocol metrics: shipped
	// payload bytes, whole-shard ship retries, recovery events, barrier
	// aborts, and barrier wait time. nil disables instrumentation.
	Telemetry *telemetry.Registry
}

// distribMetrics bundles the run's pre-resolved metrics. With a nil
// registry every field is a nil metric whose methods no-op, so call
// sites stay unconditional (clock reads are still guarded).
type distribMetrics struct {
	shipBytes   *telemetry.Counter
	shipRetries *telemetry.Counter
	recShards   *telemetry.Counter
	recRecords  *telemetry.Counter
	aborts      *telemetry.Counter
	barrierWait *telemetry.Histogram
}

func newDistribMetrics(reg *telemetry.Registry) distribMetrics {
	return distribMetrics{
		shipBytes:   reg.Counter("distrib_ship_bytes_total"),
		shipRetries: reg.Counter("distrib_ship_retries_total"),
		recShards:   reg.Counter("distrib_recovered_shards_total"),
		recRecords:  reg.Counter("distrib_recovered_records_total"),
		aborts:      reg.Counter("distrib_barrier_aborts_total"),
		barrierWait: reg.Histogram("distrib_barrier_wait_ns", telemetry.LatencyBuckets()),
	}
}

func (o *Options) normalize() {
	if o.SketchWidth <= 0 {
		o.SketchWidth = strata.DefaultSketchWidth
	}
	if o.PipelineWidth <= 0 {
		o.PipelineWidth = 128
	}
	if o.MaxShipBytes <= 0 {
		o.MaxShipBytes = 1 << 20
	}
	if o.KeyPrefix == "" {
		o.KeyPrefix = "strat"
	}
	if o.SketchWait <= 0 {
		o.SketchWait = 30 * time.Second
	}
	if o.AssignWait <= 0 {
		o.AssignWait = 30 * time.Second
	}
	if o.PollInterval <= 0 {
		o.PollInterval = time.Millisecond
	}
	if o.ShipRetries == 0 {
		o.ShipRetries = 2
	} else if o.ShipRetries < 0 {
		o.ShipRetries = 0
	}
}

// Run keys, all under o.KeyPrefix.
func (o *Options) sketchKey(i int) string { return o.KeyPrefix + ":sketches:" + strconv.Itoa(i) }
func (o *Options) doneKey(i int) string   { return o.KeyPrefix + ":done:" + strconv.Itoa(i) }
func (o *Options) assignKey() string      { return o.KeyPrefix + ":assign" }
func (o *Options) abortKey() string       { return o.KeyPrefix + ":abort" }
func (o *Options) barrierName() string    { return o.KeyPrefix + ":sketched" }

// Report describes how a distributed run actually went — which fault
// paths fired. A non-nil Report accompanies both success and failure.
type Report struct {
	// Aborted reports that the coordinator aborted the sketch barrier
	// to engage recovery.
	Aborted bool
	// RecoveredShards lists shards the coordinator re-sketched locally
	// because their completion marker was missing at the bounded wait.
	RecoveredShards []int
	// RecoveredRecords counts records recovered by the defensive
	// per-record sweep (shards whose worker arrived at the barrier but
	// shipped incompletely).
	RecoveredRecords int
	// WorkerErrs[i] is worker i's terminal error; nil for a clean
	// worker. Non-nil entries are tolerated whenever the coordinator
	// produced the full assignment (unless Options.DisableRecovery).
	WorkerErrs []error
}

// isNilKV reports whether a generically typed client is nil — either
// the interface itself or a typed-nil pointer inside it, which a plain
// == nil against the type parameter cannot see.
func isNilKV(v kvstore.KV) bool {
	if v == nil {
		return true
	}
	rv := reflect.ValueOf(v)
	switch rv.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Map, reflect.Chan, reflect.Func, reflect.Slice:
		return rv.IsNil()
	}
	return false
}

// appendSketchRecord serializes (record index, sketch) for the wire,
// appending onto buf — batch encoding packs a whole chunk of records
// into one flat arena. The index travels as uint32; larger corpora
// must be rejected rather than silently wrapped.
func appendSketchRecord(buf []byte, idx int, s sketch.Sketch) ([]byte, error) {
	if idx < 0 || int64(idx) > math.MaxUint32 {
		return buf, fmt.Errorf("distrib: record index %d outside uint32 wire range", idx)
	}
	need := 4 + 8*len(s)
	start := len(buf)
	if cap(buf)-start >= need {
		buf = buf[:start+need]
	} else {
		buf = append(buf, make([]byte, need)...)
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(idx))
	for i, v := range s {
		binary.LittleEndian.PutUint64(buf[start+4+8*i:], v)
	}
	return buf, nil
}

// decodeSketchRecord reverses appendSketchRecord.
func decodeSketchRecord(buf []byte, width int) (int, sketch.Sketch, error) {
	if len(buf) != 4+8*width {
		return 0, nil, fmt.Errorf("distrib: sketch record of %d bytes, want %d", len(buf), 4+8*width)
	}
	idx := int(binary.LittleEndian.Uint32(buf))
	s := make(sketch.Sketch, width)
	for i := range s {
		s[i] = binary.LittleEndian.Uint64(buf[4+8*i:])
	}
	return idx, s, nil
}

// encodeAssignment serializes the record→stratum table. Strata travel
// as uint32; negative or oversized values are corruption, not data.
func encodeAssignment(assign []int) ([]byte, error) {
	buf := make([]byte, 4*len(assign))
	for i, a := range assign {
		if a < 0 || int64(a) > math.MaxUint32 {
			return nil, fmt.Errorf("distrib: stratum %d for record %d outside uint32 wire range", a, i)
		}
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(a))
	}
	return buf, nil
}

// decodeAssignment reverses encodeAssignment.
func decodeAssignment(buf []byte) []int {
	out := make([]int, len(buf)/4)
	for i := range out {
		out[i] = int(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return out
}

// StratifyDetailed runs the §IV distributed stratification and reports
// which fault-recovery paths fired (shard recoveries, worker failures,
// barrier aborts). workers[i] is the store connection worker i uses
// (they may point at the same server or different ones — every key
// this package writes lives on the master's server, reachable through
// any client handed in). master is the coordinator's own connection.
// Worker i sketches the contiguous shard i of the corpus; shards are
// computed internally.
//
// The client type is generic over kvstore.KV, so existing
// []*kvstore.Client call sites compile unchanged while a slot-routed
// []*kvstore.ClusterClient points the identical protocol at a
// partitioned cluster — the run's keys spread across slot owners, and
// no shipping or barrier code changes.
func StratifyDetailed[C kvstore.KV](master C, workers []C, corpus pivots.Corpus, o Options) (*strata.Stratification, *Report, error) {
	if isNilKV(master) || len(workers) == 0 {
		return nil, nil, errors.New("distrib: need a master client and at least one worker")
	}
	if corpus == nil || corpus.Len() == 0 {
		return nil, nil, errors.New("distrib: empty corpus")
	}
	o.normalize()
	// Fail fast on clustering misconfiguration: the protocol must not
	// start if the coordinator is guaranteed to abort mid-phase.
	if o.Cluster.K < 1 || o.Cluster.L < 1 {
		return nil, nil, fmt.Errorf("distrib: invalid cluster config K=%d L=%d", o.Cluster.K, o.Cluster.L)
	}
	n := corpus.Len()
	if uint64(n) > math.MaxUint32 {
		return nil, nil, fmt.Errorf("distrib: corpus of %d records exceeds the uint32 wire format", n)
	}
	w := len(workers)
	hasher, err := sketch.NewHasher(o.SketchWidth, o.Seed)
	if err != nil {
		return nil, nil, err
	}
	parties := w + 1 // workers + coordinator
	report := &Report{WorkerErrs: make([]error, w)}
	dm := newDistribMetrics(o.Telemetry)
	var stats strata.StratifyStats

	// Clear this run's control keys before any worker can poll them, so
	// a stale assignment or abort from an earlier run under the same
	// prefix cannot leak in.
	stale := []string{o.assignKey(), o.abortKey()}
	for i := 0; i < w; i++ {
		stale = append(stale, o.doneKey(i))
	}
	if _, err := master.Del(stale...); err != nil {
		return nil, nil, fmt.Errorf("distrib: clearing run keys: %w", err)
	}

	var wg sync.WaitGroup
	shardAssigns := make([][]int, w)
	for i := range workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			report.WorkerErrs[i] = runWorker(workers[i], corpus, hasher, i, w, parties, o, dm, &shardAssigns[i])
		}(i)
	}

	coordErr := runCoordinator(master, corpus, hasher, n, w, parties, o, dm, &stats, report)
	wg.Wait()
	if coordErr != nil {
		return nil, report, coordErr
	}
	if o.DisableRecovery {
		for i, err := range report.WorkerErrs {
			if err != nil {
				return nil, report, fmt.Errorf("distrib: worker %d: %w", i, err)
			}
		}
	}

	// Reassemble the full stratification from the published assignment
	// (the coordinator could keep it in memory; reading it back through
	// the store exercises the same path the workers used).
	raw, err := master.Get(o.assignKey())
	if err != nil {
		return nil, report, err
	}
	assign := decodeAssignment(raw)
	if len(assign) != n {
		return nil, report, fmt.Errorf("distrib: assignment covers %d of %d records", len(assign), n)
	}
	// Every worker that completed saw the same published assignment for
	// its shard (dead workers have no shard view to compare).
	for i := range workers {
		lo := i * n / w
		for off, a := range shardAssigns[i] {
			if assign[lo+off] != a {
				return nil, report, fmt.Errorf("distrib: worker %d shard assignment diverges at record %d", i, lo+off)
			}
		}
	}
	k := o.Cluster.K
	if k > n {
		k = n
	}
	members := make([][]int, k)
	for i, a := range assign {
		if a < 0 || a >= k {
			return nil, report, fmt.Errorf("distrib: record %d assigned to stratum %d of %d", i, a, k)
		}
		members[a] = append(members[a], i)
	}
	wt := make([]int, k)
	for i, a := range assign {
		wt[a] += corpus.Weight(i)
	}
	// Rebuild sketches locally for the Stratification value (cheap
	// relative to shipping them back).
	sketches := strata.SketchCorpus(corpus, hasher, 0)
	return &strata.Stratification{
		Result: &strata.Result{
			Assign:  assign,
			Members: members,
		},
		Sketches:     sketches,
		WeightTotals: wt,
		Stats:        stats,
	}, report, nil
}

// runCoordinator waits (boundedly) for the workers' sketches, recovers
// missing shards locally, clusters, and publishes the assignment. On a
// terminal error it aborts both the barrier and the run so every
// blocked or polling worker is released promptly. stats receives the
// distributed run's stratification profile: the sketch phase (barrier
// wait + gather + recovery) and the centralized clustering.
func runCoordinator(master kvstore.KV, corpus pivots.Corpus, hasher *sketch.Hasher, n, w, parties int, o Options, dm distribMetrics, stats *strata.StratifyStats, report *Report) (err error) {
	b, berr := kvstore.NewBarrier(master, o.barrierName(), parties)
	if berr != nil {
		return berr
	}
	b.Timeout = o.SketchWait
	b.PollInterval = o.PollInterval
	defer func() {
		if err != nil {
			_ = master.Set(o.abortKey(), []byte("coordinator: "+err.Error()))
			_ = b.Abort("coordinator failed: " + err.Error())
		}
	}()
	phaseStart := time.Now()
	var missing []int
	if berr := func() error {
		if dm.barrierWait != nil {
			waitStart := time.Now()
			defer func() { dm.barrierWait.Observe(time.Since(waitStart).Nanoseconds()) }()
		}
		return b.Await()
	}(); berr != nil {
		if o.DisableRecovery {
			return fmt.Errorf("distrib: coordinator sketch barrier: %w", berr)
		}
		// Bounded wait expired (or the barrier itself misbehaved):
		// release live workers now and take over the missing shards.
		report.Aborted = true
		dm.aborts.Inc()
		if aerr := b.Abort("coordinator recovering missing shards"); aerr != nil {
			return fmt.Errorf("distrib: aborting sketch barrier: %w (after %v)", aerr, berr)
		}
		for i := 0; i < w; i++ {
			if _, gerr := master.Get(o.doneKey(i)); gerr != nil {
				if errors.Is(gerr, kvstore.ErrNil) {
					missing = append(missing, i)
					continue
				}
				return fmt.Errorf("distrib: reading completion marker %d: %w", i, gerr)
			}
		}
	}
	recovering := make(map[int]bool, len(missing))
	for _, i := range missing {
		recovering[i] = true
	}
	sketches := make([]sketch.Sketch, n)
	// Gather in bounded LRANGE windows: each batch is decoded into its
	// slot and the raw wire bytes are dropped before the next window,
	// so the coordinator never materializes a whole shard's encoding.
	const gatherWindow = 4096
	for i := 0; i < w; i++ {
		if recovering[i] {
			continue
		}
		err := master.LRangeChunked(o.sketchKey(i), gatherWindow, func(batch [][]byte) error {
			for _, rec := range batch {
				idx, s, err := decodeSketchRecord(rec, o.SketchWidth)
				if err != nil {
					return err
				}
				if idx < 0 || idx >= n {
					return fmt.Errorf("distrib: sketch for out-of-range record %d", idx)
				}
				sketches[idx] = s
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("distrib: gathering worker %d sketches: %w", i, err)
		}
	}
	// Re-sketch missing shards locally: sketching is a pure function of
	// (corpus, hasher), so the recovered values are bit-identical to
	// what the dead workers would have shipped.
	for _, i := range missing {
		lo, hi := i*n/w, (i+1)*n/w
		for r := lo; r < hi; r++ {
			sketches[r] = hasher.Sketch(corpus.ItemSet(r))
		}
	}
	report.RecoveredShards = missing
	dm.recShards.Add(int64(len(missing)))
	// Defensive sweep: a worker that arrived at the barrier after a
	// failed ship leaves holes no marker accounts for.
	for r, s := range sketches {
		if s != nil {
			continue
		}
		if o.DisableRecovery {
			return fmt.Errorf("distrib: record %d never sketched", r)
		}
		sketches[r] = hasher.Sketch(corpus.ItemSet(r))
		report.RecoveredRecords++
	}
	dm.recRecords.Add(int64(report.RecoveredRecords))
	stats.SketchTime = time.Since(phaseStart)
	clusterStart := time.Now()
	res, err := strata.Cluster(sketches, o.Cluster)
	if err != nil {
		return err
	}
	stats.ClusterTime = time.Since(clusterStart)
	stats.Iterations = res.Iterations
	stats.Converged = res.Converged
	stats.Iters = res.IterStats
	stats.Busy = res.Busy
	for _, it := range res.IterStats {
		stats.MovedTotal += it.Moved
	}
	enc, err := encodeAssignment(res.Assign)
	if err != nil {
		return err
	}
	if err := master.Set(o.assignKey(), enc); err != nil {
		return fmt.Errorf("distrib: publishing assignment: %w", err)
	}
	return nil
}

// runWorker executes one worker's phases: sketch shard → ship (with
// whole-shard retry) → completion marker → barrier (advisory) → poll
// assignment.
func runWorker(c kvstore.KV, corpus pivots.Corpus, hasher *sketch.Hasher, i, w, parties int, o Options, dm distribMetrics, shardAssign *[]int) error {
	n := corpus.Len()
	lo := i * n / w
	hi := (i + 1) * n / w

	var shipErr error
	for attempt := 0; attempt <= o.ShipRetries; attempt++ {
		if attempt > 0 {
			dm.shipRetries.Inc()
		}
		if shipErr = shipShard(c, corpus, hasher, lo, hi, o.sketchKey(i), o.PipelineWidth, o.MaxShipBytes, dm.shipBytes); shipErr == nil {
			break
		}
	}
	if shipErr == nil {
		// Completion marker: the coordinator's ground truth for which
		// shards need recovery. A failed SET is tolerable — worst case
		// the coordinator re-sketches a shard it already has.
		_ = c.Set(o.doneKey(i), []byte(strconv.Itoa(hi-lo)))
	}

	// The sketch barrier is advisory for workers: aborts (coordinator
	// recovering), timeouts, and even a failed fetch-and-increment all
	// fall through to the authoritative signal — the published
	// assignment appearing under the run's key.
	if b, err := kvstore.NewBarrier(c, o.barrierName(), parties); err == nil {
		b.Timeout = 2 * o.SketchWait
		b.PollInterval = o.PollInterval
		_ = b.Await()
	}

	raw, pollErr := pollAssignment(c, o)
	if pollErr != nil {
		if shipErr != nil {
			return errors.Join(shipErr, pollErr)
		}
		return pollErr
	}
	assign := decodeAssignment(raw)
	if len(assign) != n {
		return fmt.Errorf("assignment covers %d of %d records", len(assign), n)
	}
	*shardAssign = assign[lo:hi]
	if shipErr != nil {
		return fmt.Errorf("shard ship failed (coordinator recovery required): %w", shipErr)
	}
	return nil
}

// shipShard pushes one shard's sketches as a fresh list: DEL + a
// pipeline of chunked variadic RPUSHes + length check. Records are
// packed into one flat arena per command and shipped many-per-RPUSH —
// bounded by maxShip payload bytes per command — so a shard costs
// O(records/chunk) commands, replies, and engine dispatches instead of
// O(records). The list contents are element-for-element identical to
// the per-record path (variadic RPUSH appends values in order), and
// each attempt starts from scratch, which is what makes the
// non-idempotent RPUSHes safely retryable as a unit.
func shipShard(c kvstore.KV, corpus pivots.Corpus, hasher *sketch.Hasher, lo, hi int, key string, width, maxShip int, shipBytes *telemetry.Counter) error {
	if _, err := c.Del(key); err != nil {
		return err
	}
	p, err := c.Pipe(width)
	if err != nil {
		return err
	}
	recSize := 4 + 8*hasher.K()
	perCmd := maxShip / recSize
	if perCmd < 1 {
		perCmd = 1
	}
	total := hi - lo
	p.Expect((total + perCmd - 1) / perCmd)
	// One arena and one scratch sketch for the whole ship: Send frames
	// the arguments into the client's write buffer before returning, so
	// both are safely recycled per batch.
	keyArg := []byte(key)
	arena := make([]byte, 0, perCmd*recSize)
	args := make([][]byte, 0, perCmd+1)
	scratch := make(sketch.Sketch, hasher.K())
	for r := lo; r < hi; {
		n := perCmd
		if hi-r < n {
			n = hi - r
		}
		arena = arena[:0]
		args = append(args[:0], keyArg)
		for j := 0; j < n; j++ {
			hasher.SketchInto(corpus.ItemSet(r+j), scratch)
			start := len(arena)
			if arena, err = appendSketchRecord(arena, r+j, scratch); err != nil {
				return err
			}
			args = append(args, arena[start:len(arena):len(arena)])
		}
		if err := p.Send("RPUSH", args...); err != nil {
			return err
		}
		shipBytes.Add(int64(len(arena)))
		r += n
	}
	reps, err := p.Finish()
	if err != nil {
		return err
	}
	for _, rep := range reps {
		if err := rep.Err(); err != nil {
			return err
		}
	}
	cnt, err := c.LLen(key)
	if err != nil {
		return err
	}
	if cnt != int64(total) {
		return fmt.Errorf("distrib: shard list holds %d of %d records", cnt, total)
	}
	return nil
}

// pollAssignment waits for the coordinator's published assignment with
// exponential backoff, bounded by Options.AssignWait, bailing out
// promptly if the run's abort key appears.
func pollAssignment(c kvstore.KV, o Options) ([]byte, error) {
	deadline := time.Now().Add(o.AssignWait)
	poll := o.PollInterval
	maxPoll := 64 * o.PollInterval
	var lastErr error
	for {
		raw, err := c.Get(o.assignKey())
		if err == nil {
			return raw, nil
		}
		if !errors.Is(err, kvstore.ErrNil) {
			lastErr = err // transient store trouble: keep polling
		}
		if reason, aerr := c.Get(o.abortKey()); aerr == nil {
			return nil, fmt.Errorf("distrib: run aborted: %s", reason)
		}
		if time.Now().After(deadline) {
			if lastErr != nil {
				return nil, fmt.Errorf("distrib: assignment wait timed out after %v: %w", o.AssignWait, lastErr)
			}
			return nil, fmt.Errorf("distrib: assignment wait timed out after %v", o.AssignWait)
		}
		time.Sleep(poll)
		poll *= 2
		if poll > maxPoll {
			poll = maxPoll
		}
	}
}
