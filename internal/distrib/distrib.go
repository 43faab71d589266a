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
//   - The master gathers the sketches into one n × width arena, clusters
//     them with compositeKModes ("we chose to do the clustering in a
//     centralized manner as the compositeKmodes algorithm is run on the
//     sketches rather than the actual data") and publishes the
//     record→stratum assignment.
//   - Once it is published, each worker reads the assignment once and
//     keeps its shard.
//
// The result is what the coordinator holds when it publishes — the
// gathered sketches and the clustering it ran on them — and is
// bit-identical to the in-process strata.Stratify (same seeds, same
// order), which the tests assert. The published bytes are what the
// workers decode, and every worker's view of its shard is compared with
// the coordinator's assignment, so a publication that decodes to
// something other than what was clustered fails the run.
//
// # Keys
//
// The coordinator draws a run id (INCR <prefix>:run) before any worker
// starts, and every key of the run carries it: the per-shard sketch
// lists and completion markers, the assignment and the barrier's name.
// Nothing an earlier run or a straggler from one left on the store can
// satisfy the wait or be gathered as data. When the run ends — success
// or failure, after the workers have joined — the coordinator deletes
// the run's keys, the barrier's included; only the run counter stays.
//
// A sketch list's element is a block: whole (index uint32, width ×
// uint64) records back to back, up to blockBytes, no header. The
// gather rejects a block that is empty or not a whole number of
// records and range-checks every index.
//
// # Fault tolerance
//
// Real heterogeneous clusters flap, so the protocol survives worker
// death and connection faults:
//
//   - Each worker writes a per-shard completion marker after shipping
//     its sketches, and re-ships the whole shard (DEL + re-push, which
//     is idempotent as a unit) when a pipeline fails mid-flight.
//   - Only the coordinator waits at the sketch barrier, and boundedly
//     (30 s by default). Past the bound it reads the completion
//     markers and re-sketches the missing shards locally. Sketching is
//     a pure function of (corpus, hasher), so recovery is bit-identical
//     to what the dead worker would have produced, and a run with up
//     to f dead workers still returns the exact in-process
//     stratification.
//   - Workers arrive at the sketch barrier without waiting there, so a
//     failed fetch-and-increment costs only the coordinator's bounded
//     wait. No worker waits for the assignment either: once the
//     coordinator has published it and the workers' ship goroutines
//     have joined, each worker reads it with one GET. A worker that
//     cannot read it reports that in Report.WorkerErrs; after a
//     coordinator failure no worker reads.
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
	"pareto/internal/parallel"
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
	// may be in flight before the pipeline flushes (0 = 128). Records
	// travel many-per-command (maxShipBytes), so the width bounds
	// commands, not records.
	PipelineWidth int

	// Telemetry, when non-nil, records protocol metrics: shipped
	// payload bytes, whole-shard ship retries, recovery events, barrier
	// timeouts, and barrier wait time. nil disables instrumentation.
	Telemetry *telemetry.Registry

	// sketchWait bounds the coordinator's wait for workers at the
	// sketch barrier, the run's one wait; past it the coordinator
	// recovers missing shards locally (0 = 30s). Every program runs it
	// at its default; only this package's tests shorten it.
	sketchWait time.Duration

	// prefix namespaces the run's keys: keyPrefix, then the run id once
	// StratifyDetailed has drawn it.
	prefix string
}

// The protocol's fixed parameters.
const (
	// keyPrefix namespaces every run's keys on the store.
	keyPrefix = "strat"
	// maxShipBytes caps the record payload packed into one variadic
	// RPUSH command, so a single command can never blow up the server's
	// read arena.
	maxShipBytes = 1 << 20
	// shipRetries is how many extra times a worker re-ships its whole
	// shard after a failed pipeline: RPUSHes are not individually
	// retryable (kvstore.ErrNotRetryable), but DEL + re-push of the
	// shard is idempotent as a unit.
	shipRetries = 2
	// barrierPollCap is where the coordinator's poll at the sketch
	// barrier stops backing off. The wait is hundreds of milliseconds
	// long, and whatever the coordinator oversleeps past its end the
	// whole run waits too.
	barrierPollCap = 8 * time.Millisecond
)

// distribMetrics bundles the run's pre-resolved metrics. With a nil
// registry every field is a nil metric whose methods no-op, so call
// sites stay unconditional.
type distribMetrics struct {
	shipBytes   *telemetry.Counter
	shipRetries *telemetry.Counter
	recShards   *telemetry.Counter
	recRecords  *telemetry.Counter
	timeouts    *telemetry.Counter
	barrierWait *telemetry.Histogram
}

func newDistribMetrics(reg *telemetry.Registry) distribMetrics {
	return distribMetrics{
		shipBytes:   reg.Counter("distrib_ship_bytes_total"),
		shipRetries: reg.Counter("distrib_ship_retries_total"),
		recShards:   reg.Counter("distrib_recovered_shards_total"),
		recRecords:  reg.Counter("distrib_recovered_records_total"),
		timeouts:    reg.Counter("distrib_barrier_timeouts_total"),
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
	o.prefix = keyPrefix
	if o.sketchWait <= 0 {
		o.sketchWait = 30 * time.Second
	}
}

// blockBytes caps one element of a sketch list: a block of whole
// records. One element per 260-byte record cost a reply, a bulk and a
// server-side copy each, on both ends.
const blockBytes = 64 << 10

// Run keys, all under o.prefix — which, once StratifyDetailed has drawn
// the run id from runKey, ends in that id.
func (o *Options) runKey() string         { return o.prefix + ":run" }
func (o *Options) sketchKey(i int) string { return o.prefix + ":sketches:" + strconv.Itoa(i) }
func (o *Options) doneKey(i int) string   { return o.prefix + ":done:" + strconv.Itoa(i) }
func (o *Options) assignKey() string      { return o.prefix + ":assign" }
func (o *Options) barrierName() string    { return o.prefix + ":sketched" }

// Report describes how a distributed run actually went — which fault
// paths fired. A non-nil Report accompanies both success and failure.
type Report struct {
	// TimedOut reports that the coordinator's wait at the sketch
	// barrier ran out and engaged recovery.
	TimedOut bool
	// RecoveredShards lists shards the coordinator re-sketched locally
	// because their completion marker was missing at the bounded wait.
	RecoveredShards []int
	// RecoveredRecords counts records outside RecoveredShards that the
	// coordinator found unshipped after the gather and re-sketched
	// (shards whose worker arrived at the barrier but shipped
	// incompletely). Zero on a clean run.
	RecoveredRecords int
	// WorkerErrs[i] is worker i's failure to ship its shard or to read
	// the published assignment; nil for a clean worker. Non-nil entries
	// are tolerated whenever the coordinator produced the full
	// assignment.
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

// decodeSketchBlock reverses a block of appendSketchRecord records
// straight into the coordinator's table: record idx lands in
// flat[idx*width:] and out[idx] is pointed at it, so an out[idx] still
// nil after the gather is a record nobody shipped.
func decodeSketchBlock(block []byte, width int, flat []uint64, out []sketch.Sketch) error {
	recSize := 4 + 8*width
	if len(block) == 0 || len(block)%recSize != 0 {
		return fmt.Errorf("distrib: sketch block of %d bytes, want whole records of %d", len(block), recSize)
	}
	for ; len(block) > 0; block = block[recSize:] {
		idx := int(binary.LittleEndian.Uint32(block))
		if idx < 0 || idx >= len(out) {
			return fmt.Errorf("distrib: sketch for out-of-range record %d", idx)
		}
		s := flat[idx*width : (idx+1)*width : (idx+1)*width]
		for i := range s {
			s[i] = binary.LittleEndian.Uint64(block[4+8*i:])
		}
		out[idx] = s
	}
	return nil
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

// decodeAssignment reverses encodeAssignment for a table of n records
// clustered with K = k. It refuses a buffer that is not n whole ids,
// and any id ≥ min(k, n): clustering makes no more strata than that.
func decodeAssignment(buf []byte, n, k int) ([]int, error) {
	if len(buf)%4 != 0 {
		return nil, fmt.Errorf("assignment of %d bytes is not whole 4-byte ids", len(buf))
	}
	if len(buf)/4 != n {
		return nil, fmt.Errorf("assignment covers %d of %d records", len(buf)/4, n)
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(binary.LittleEndian.Uint32(buf[4*i:]))
		if out[i] >= min(k, n) {
			return nil, fmt.Errorf("record %d in stratum %d of %d", i, out[i], min(k, n))
		}
	}
	return out, nil
}

// StratifyDetailed runs the §IV distributed stratification and reports
// which fault-recovery paths fired (shard recoveries, worker failures,
// barrier timeouts). workers[i] is the store connection worker i uses
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

	// Scope every key to this run before any worker can touch the store.
	id, err := master.Incr(o.runKey())
	if err != nil {
		return nil, nil, fmt.Errorf("distrib: drawing run id: %w", err)
	}
	o.prefix += ":" + strconv.FormatInt(id, 10)
	b, err := kvstore.NewBarrier(master, o.barrierName(), parties)
	if err != nil {
		return nil, nil, err
	}

	var wg sync.WaitGroup
	shipBusy := make([]time.Duration, w)
	for i := range workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shipBusy[i], report.WorkerErrs[i] = runWorker(workers[i], corpus, hasher, i, w, parties, o, dm)
		}(i)
	}

	st, err := runCoordinator(master, b, corpus, hasher, n, w, o, dm, report)
	wg.Wait()
	if err == nil {
		err = readShards(workers, st.Assign, o, report)
	}
	// Every party has left the run. A delete that fails leaks keys no
	// later run reads — they carry this run's id — so the result stands.
	keys := []string{o.assignKey()}
	for i := 0; i < w; i++ {
		keys = append(keys, o.sketchKey(i), o.doneKey(i))
	}
	_, _ = master.Del(keys...)
	_ = b.Clear()
	if err != nil {
		return nil, report, err
	}
	for _, d := range shipBusy {
		st.Stats.Busy += d
	}
	return st, report, nil
}

// readShards has each worker read the published assignment once,
// through its own client, and holds the shard it decodes to the
// coordinator's: a worker that cannot read or decode it adds that to
// its error in report, and a shard that diverges fails the run.
func readShards[C kvstore.KV](workers []C, assign []int, o Options, report *Report) error {
	n, w := len(assign), len(workers)
	for i, c := range workers {
		raw, err := c.Get(o.assignKey())
		var got []int
		if err == nil {
			got, err = decodeAssignment(raw, n, o.Cluster.K)
		}
		if err != nil {
			report.WorkerErrs[i] = errors.Join(report.WorkerErrs[i], fmt.Errorf("distrib: reading the assignment: %w", err))
			continue
		}
		for r := i * n / w; r < (i+1)*n/w; r++ {
			if got[r] != assign[r] {
				return fmt.Errorf("distrib: worker %d shard assignment diverges at record %d", i, r)
			}
		}
	}
	return nil
}

// runCoordinator waits (boundedly) for the workers' sketches, gathers
// them, recovers what is missing locally, stratifies them centrally
// (strata.StratifySketches), and publishes the assignment; it returns
// the stratification it published. The stratification's stats profile
// the sketch phase (barrier wait + gather + recovery) and the
// centralized clustering; the workers' ship time is the caller's to
// add.
func runCoordinator(master kvstore.KV, b *kvstore.Barrier, corpus pivots.Corpus, hasher *sketch.Hasher, n, w int, o Options, dm distribMetrics, report *Report) (*strata.Stratification, error) {
	b.Timeout = o.sketchWait
	b.MaxPollInterval = barrierPollCap
	phaseStart := time.Now()
	recovering := make([]bool, w)
	berr := b.Await()
	dm.barrierWait.Observe(time.Since(phaseStart).Nanoseconds())
	if berr != nil {
		// Bounded wait expired (or the barrier itself misbehaved):
		// take over the missing shards.
		report.TimedOut = true
		dm.timeouts.Inc()
		for i := 0; i < w; i++ {
			if _, gerr := master.Get(o.doneKey(i)); gerr != nil {
				if errors.Is(gerr, kvstore.ErrNil) {
					recovering[i] = true
					report.RecoveredShards = append(report.RecoveredShards, i)
					continue
				}
				return nil, fmt.Errorf("distrib: reading completion marker %d: %w", i, gerr)
			}
		}
	}
	dm.recShards.Add(int64(len(report.RecoveredShards)))
	// One arena for every sketch, laid out like sketch.SketchAll's. Each
	// LRANGE window of blocks is decoded into it and dropped before the
	// next, so the coordinator never holds a whole shard's encoding.
	width := hasher.K()
	flat := make([]uint64, n*width)
	sketches := make([]sketch.Sketch, n)
	const gatherWindow = 16
	gatherStart := time.Now()
	for i := 0; i < w; i++ {
		if recovering[i] {
			continue
		}
		err := master.LRangeChunked(o.sketchKey(i), gatherWindow, func(batch [][]byte) error {
			for _, block := range batch {
				if err := decodeSketchBlock(block, width, flat, sketches); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("distrib: gathering worker %d sketches: %w", i, err)
		}
	}
	sketchBusy := time.Since(gatherStart)
	// What is still nil is a recovering shard, or a hole no marker
	// accounts for (a worker that arrived at the barrier after a failed
	// ship). Sketching is a pure function of (corpus, hasher), so
	// re-sketching either locally is bit-identical to what the worker
	// would have shipped.
	var holes []int
	for i := 0; i < w; i++ {
		for r := i * n / w; r < (i+1)*n/w; r++ {
			if sketches[r] != nil {
				continue
			}
			holes = append(holes, r)
			if !recovering[i] {
				report.RecoveredRecords++
			}
		}
	}
	dm.recRecords.Add(int64(report.RecoveredRecords))
	sketchBusy += parallel.For(len(holes), o.Cluster.Workers, func(lo, hi int) {
		var items []sketch.Item
		for _, r := range holes[lo:hi] {
			sketches[r] = flat[r*width : (r+1)*width : (r+1)*width]
			items = corpus.AppendItems(items[:0], r)
			hasher.SketchInto(items, sketches[r])
		}
	})
	sketchTime := time.Since(phaseStart)
	st, err := strata.StratifySketches(corpus, sketches, strata.StratifierConfig{
		SketchWidth: width, Cluster: o.Cluster, Seed: o.Seed,
	})
	if err != nil {
		return nil, err
	}
	st.Stats.SketchTime = sketchTime
	st.Stats.Busy += sketchBusy
	enc, err := encodeAssignment(st.Assign)
	if err != nil {
		return nil, err
	}
	if err := master.Set(o.assignKey(), enc); err != nil {
		return nil, fmt.Errorf("distrib: publishing assignment: %w", err)
	}
	return st, nil
}

// runWorker executes one worker's phases: sketch shard → ship (with
// whole-shard retry) → completion marker → arrive at the barrier. It
// returns the time it spent sketching and shipping.
func runWorker(c kvstore.KV, corpus pivots.Corpus, hasher *sketch.Hasher, i, w, parties int, o Options, dm distribMetrics) (time.Duration, error) {
	n := corpus.Len()
	lo := i * n / w
	hi := (i + 1) * n / w

	shipStart := time.Now()
	var shipErr error
	for attempt := 0; attempt <= shipRetries; attempt++ {
		if attempt > 0 {
			dm.shipRetries.Inc()
		}
		if shipErr = shipShard(c, corpus, hasher, lo, hi, o.sketchKey(i), o.PipelineWidth, dm.shipBytes); shipErr == nil {
			break
		}
	}
	busy := time.Since(shipStart)
	if shipErr == nil {
		// Completion marker: the coordinator's ground truth for which
		// shards need recovery. A failed SET is tolerable — worst case
		// the coordinator re-sketches a shard it already has.
		_ = c.Set(o.doneKey(i), []byte(strconv.Itoa(hi-lo)))
	}

	// Only the coordinator waits at the sketch barrier. A failed
	// fetch-and-increment costs it its bounded wait.
	if b, err := kvstore.NewBarrier(c, o.barrierName(), parties); err == nil {
		_ = b.Arrive()
	}
	if shipErr != nil {
		return busy, fmt.Errorf("shard ship failed (coordinator recovery required): %w", shipErr)
	}
	return busy, nil
}

// shipShard pushes one shard's sketches as a fresh list of blocks: DEL
// + a pipeline of variadic RPUSHes + a check of the length the last
// RPUSH reports. Records are packed into one flat arena per command —
// bounded by maxShipBytes of payload — and travel as blocks of up to
// blockBytes, so a shard costs O(records/block) list elements, bulks
// and server-side copies on both ends, not O(records). Each attempt
// starts from scratch, which is what makes the non-idempotent RPUSHes
// safely retryable as a unit.
func shipShard(c kvstore.KV, corpus pivots.Corpus, hasher *sketch.Hasher, lo, hi int, key string, width int, shipBytes *telemetry.Counter) error {
	if _, err := c.Del(key); err != nil {
		return err
	}
	p, err := c.Pipe(key, width)
	if err != nil {
		return err
	}
	recSize := 4 + 8*hasher.K()
	perBlock := max(1, min(blockBytes, maxShipBytes)/recSize) // records
	blocksPerCmd := max(1, maxShipBytes/(perBlock*recSize))
	perCmd := perBlock * blocksPerCmd
	total := hi - lo
	// One arena, one item buffer and one scratch sketch for the whole
	// ship: Send frames the arguments into the client's write buffer
	// before returning, so all three are safely recycled per command.
	keyArg := []byte(key)
	arena := make([]byte, 0, perCmd*recSize)
	args := make([][]byte, 0, blocksPerCmd+1)
	scratch := make(sketch.Sketch, hasher.K())
	var items []sketch.Item
	for r := lo; r < hi; {
		n := min(perCmd, hi-r)
		arena = arena[:0]
		for j := 0; j < n; j++ {
			items = corpus.AppendItems(items[:0], r+j)
			hasher.SketchInto(items, scratch)
			if arena, err = appendSketchRecord(arena, r+j, scratch); err != nil {
				return err
			}
		}
		args = append(args[:0], keyArg)
		for off := 0; off < len(arena); off += perBlock * recSize {
			end := min(off+perBlock*recSize, len(arena))
			args = append(args, arena[off:end:end])
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
	// The list starts empty, so the last RPUSH reply is its length; a
	// shard with no records sends nothing and holds 0 blocks.
	var cnt int64
	for _, rep := range reps {
		if err := rep.Err(); err != nil {
			return err
		}
		cnt = rep.Int
	}
	// Only the shard's last block can be short: a command carries a
	// whole number of blocks.
	if blocks := (total + perBlock - 1) / perBlock; cnt != int64(blocks) {
		return fmt.Errorf("distrib: shard list holds %d of %d blocks", cnt, blocks)
	}
	return nil
}
