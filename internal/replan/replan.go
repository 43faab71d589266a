package replan

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"pareto/internal/cluster"
	"pareto/internal/core"
	"pareto/internal/opt"
	"pareto/internal/parallel"
	"pareto/internal/partitioner"
	"pareto/internal/pivots"
	"pareto/internal/sketch"
	"pareto/internal/strata"
	"pareto/internal/telemetry"
)

// Config assembles the control loop's knobs around a core pipeline
// configuration.
type Config struct {
	// Core configures the underlying planning pipeline. DistStratify is
	// rejected: the loop owns stratification, and a full cycle sets it on
	// its own copy to cluster the sketches the loop holds.
	Core core.Config
	// Drift configures the per-stratum drift statistic; its Threshold
	// decides when a stratum is dirty. Threshold 0 marks every stratum
	// dirty on any traffic — every cycle is a full replan.
	Drift strata.DriftConfig
	// MaxMovesPerCycle bounds how many already-placed records one cycle
	// may migrate; leftover moves carry into the next cycle. Placements
	// of newly ingested records are not migrations and are never
	// deferred. 0 means unlimited.
	MaxMovesPerCycle int
	// Store, when non-nil, is the base partition store the loop
	// migrates data through. It is wrapped in an EpochStore so a failed
	// migration never tears the readable state.
	Store partitioner.Store
	// Telemetry receives the replan_* counters, gauges and the cycle
	// latency histogram.
	Telemetry *telemetry.Registry
}

// CycleKind classifies what one control cycle did.
type CycleKind int

// Cycle kinds.
const (
	// CycleClean re-planned nothing: no stratum was dirty. The cycle
	// still places pending ingests and drains deferred moves.
	CycleClean CycleKind = iota
	// CycleIncremental re-stratified only the dirty strata, re-profiled
	// at the new corpus size and re-solved the sizing LP.
	CycleIncremental
	// CycleFull re-ran the whole pipeline: every stratum was dirty, so
	// the cycle is by definition a cold full replan.
	CycleFull
)

// String names the kind.
func (k CycleKind) String() string {
	switch k {
	case CycleClean:
		return "clean"
	case CycleIncremental:
		return "incremental"
	case CycleFull:
		return "full"
	default:
		return fmt.Sprintf("CycleKind(%d)", int(k))
	}
}

// CycleReport describes one executed cycle.
type CycleReport struct {
	// Kind is the replanning path taken.
	Kind CycleKind
	// Dirty lists the strata whose drift crossed the threshold at the
	// start of the cycle, ascending.
	Dirty []int
	// LPSolved is true when the cycle ran the sizing LP.
	LPSolved bool
	// LPWarm is never set: every sizing solve is the planner's own cold
	// one. The field stays only because benchmark/replan.go reads it;
	// retire it with that benchmark row.
	LPWarm bool
	// ProfileRuns counts the incremental path's profile-function
	// evaluations, one per rung of the sample ladder. (A full cycle's
	// evaluations happen inside core.BuildPlan and are not counted.)
	ProfileRuns int
	// ProfileCacheHits is never set: the (size, sample-hash) cost memo it
	// counted is gone. The field stays only because benchmark/replan.go
	// reads it; retire it with that benchmark row.
	ProfileCacheHits int
	// Placements counts newly ingested records placed this cycle.
	Placements int
	// MovesApplied/MovesDeferred split the migration of already-placed
	// records against MaxMovesPerCycle.
	MovesApplied  int
	MovesDeferred int
	// RecordsShipped/BytesShipped count what the cycle's stage handed to
	// the base store: the rewritten suffix of every affected partition,
	// not the partitions (zero without a store).
	RecordsShipped int
	BytesShipped   int
	// Converged is true when the live placement reached the installed
	// target this cycle (no deferred moves remain).
	Converged bool
	// Elapsed is the cycle's wall-clock time.
	Elapsed time.Duration
}

// Loop is the online replanning control loop. It is not safe for
// concurrent use: one goroutine owns ingest and cycles, which is the
// deployment shape (a single controller per cluster).
//
// Assignments the loop builds share backing arrays, so a cycle costs
// its placements and moves, not the corpus. One rule keeps that safe:
// a partition's backing array is append-only. No element is rewritten
// below the length of any slice already handed out (Actual(),
// Plan().Assign, an earlier target), a slice that drops records is
// capacity-clipped, and only the loop appends — to a committed list
// whose spare capacity no handed-out slice covers.
type Loop struct {
	cfg     Config
	cl      *cluster.Cluster
	profile core.ProfileFunc
	corpus  *DynamicCorpus
	hasher  *sketch.Hasher
	reg     *telemetry.Registry
	k       int
	p       int

	plan    *core.Plan
	st      *strata.Stratification
	tracker *strata.DriftTracker

	shares []float64

	actual  *partitioner.Assignment
	where   []int // committed partition of each record, -1 until placed
	target  *partitioner.Assignment
	targetN int
	// extends is true for a Rebalance-derived target: every partition it
	// does not cut starts with the committed list.
	extends bool
	pending []int
	store   *EpochStore

	lastSizes []int
	lastN     int

	corpusWeight int
}

// New builds the initial plan cold (a full core.BuildPlan over the base
// corpus), places it into cfg.Store when one is given, and returns a
// loop ready to ingest drifting traffic.
func New(base pivots.Corpus, cl *cluster.Cluster, profile core.ProfileFunc, cfg Config) (*Loop, error) {
	if cfg.Core.DistStratify != nil {
		return nil, errors.New("replan: DistStratify is not supported; the loop owns stratification")
	}
	if cfg.Core.Strategy == core.Stratified {
		return nil, errors.New("replan: the Stratified baseline has no sizing to re-solve; use a Het strategy")
	}
	if cfg.MaxMovesPerCycle < 0 {
		return nil, fmt.Errorf("replan: negative MaxMovesPerCycle %d", cfg.MaxMovesPerCycle)
	}
	if cfg.Drift.Threshold < 0 {
		return nil, fmt.Errorf("replan: negative drift threshold %v", cfg.Drift.Threshold)
	}
	if cl == nil || cl.P() == 0 {
		return nil, errors.New("replan: empty cluster")
	}
	corpus, err := NewDynamicCorpus(base)
	if err != nil {
		return nil, err
	}
	// Resolve once, on the base corpus: this freezes the stratifier
	// geometry BuildPlan would otherwise default per call, so the loop's K
	// does not drift as the corpus grows.
	p := cl.P()
	if cfg.Core, err = core.Resolve(cfg.Core, base.Len(), p, profile); err != nil {
		return nil, err
	}
	hasher, err := sketch.NewHasher(cfg.Core.Stratifier.Width(), cfg.Core.Stratifier.Seed)
	if err != nil {
		return nil, fmt.Errorf("replan: %w", err)
	}
	l := &Loop{
		cfg: cfg, cl: cl, profile: profile, corpus: corpus,
		hasher: hasher, reg: cfg.Telemetry, p: p,
	}
	plan, err := core.BuildPlan(corpus, cl, profile, cfg.Core)
	if err != nil {
		return nil, err
	}
	if err := l.installFull(plan); err != nil {
		return nil, err
	}
	l.k = l.tracker.K()
	l.actual = &partitioner.Assignment{Parts: make([][]int, p)}
	l.where = make([]int, corpus.Len())
	for i := range l.where {
		l.where[i] = -1
	}
	if cfg.Store != nil {
		if l.store, err = NewEpochStore(cfg.Store, p); err != nil {
			return nil, err
		}
	}
	// Initial placement: every record is a placement, no migrations.
	if err := l.migrate(nil); err != nil {
		return nil, err
	}
	return l, nil
}

// installFull adopts a freshly built full plan: new stratification and
// new drift tracker.
func (l *Loop) installFull(plan *core.Plan) error {
	tracker, err := strata.NewDriftTracker(plan.Strat, l.cfg.Drift)
	if err != nil {
		return err
	}
	l.plan = plan
	l.st = plan.Strat
	l.tracker = tracker
	l.setShares(plan.Optimized, l.corpus.Len())
	l.target, l.targetN, l.extends = plan.Assign, l.corpus.Len(), false
	l.lastSizes = append([]int(nil), plan.Sizes...)
	l.lastN = l.corpus.Len()
	l.corpusWeight = plan.CorpusWeight
	return nil
}

// Ingest admits one wire record of the corpus kind into the live
// corpus (see DynamicCorpus.Append): it is sketched with the
// stratifier's hash family, assigned to its nearest frozen stratum
// (feeding the drift statistic), and queued for placement on the next
// cycle. Returns the stratum the record joined.
func (l *Loop) Ingest(raw []byte) (int, error) {
	// The corpus validates the record before the tracker counts it: a
	// lone-stratum refreeze trusts the tracker's counters to hold exactly
	// the stratum's members (see replanIncremental). The tracker itself
	// only rejects a sketch of the wrong width, which the loop's own
	// hasher cannot produce.
	idx, items, err := l.corpus.Append(raw)
	if err != nil {
		return 0, err
	}
	sk := l.hasher.Sketch(items)
	stratum, _, err := l.tracker.Ingest(sk)
	if err != nil {
		return 0, err
	}
	l.st.Assign = append(l.st.Assign, stratum)
	l.st.Members[stratum] = append(l.st.Members[stratum], idx)
	l.st.Sketches = append(l.st.Sketches, sk)
	weight := l.corpus.Weight(idx)
	l.st.WeightTotals[stratum] += weight
	l.corpusWeight += weight
	l.where = append(l.where, -1)
	l.pending = append(l.pending, idx)
	l.reg.Counter("replan_ingested_total").Inc()
	return stratum, nil
}

// Cycle runs one control iteration: classify drift, re-plan along the
// cheapest valid path, and migrate toward the installed target under
// the move budget. On a migration write failure the previous placement
// stays fully readable (commit-or-abort cutover) and the next cycle
// resumes the same moves.
func (l *Loop) Cycle() (*CycleReport, error) {
	t0 := time.Now()
	n := l.corpus.Len()
	dirty := l.tracker.DirtyStrata()
	rep := &CycleReport{Dirty: dirty}

	switch {
	case len(dirty) == l.k:
		// Every stratum drifted: an incremental pass would redo all the
		// work anyway, so this IS a cold full replan — bit-identical to
		// core.BuildPlan by construction. Only the sketch pass is
		// skipped: Ingest hashed every record with the stratifier's own
		// width and seed, so the loop clusters the sketches it holds,
		// clipped so later ingests never write into this plan's array.
		rep.Kind = CycleFull
		cfg := l.cfg.Core
		held := l.st.Sketches[:n:n]
		cfg.DistStratify = func(c pivots.Corpus, sc strata.StratifierConfig) (*strata.Stratification, error) {
			return strata.StratifySketches(c, held, sc)
		}
		plan, err := core.BuildPlan(l.corpus, l.cl, l.profile, cfg)
		if err != nil {
			return nil, err
		}
		if err := l.installFull(plan); err != nil {
			return nil, err
		}
	case len(dirty) > 0:
		rep.Kind = CycleIncremental
		if err := l.replanIncremental(n, dirty, rep); err != nil {
			return nil, err
		}
	default:
		rep.Kind = CycleClean
		if l.targetN != n {
			// Ingests arrived since the target was installed: extend it
			// at the current sizing without re-planning.
			if err := l.retarget(l.sizesFor(n), n); err != nil {
				return nil, err
			}
		}
	}

	if err := l.migrate(rep); err != nil {
		l.reg.Counter("replan_migration_aborts_total").Inc()
		return nil, err
	}
	rep.Converged = rep.MovesDeferred == 0
	rep.Elapsed = time.Since(t0)

	reg := l.reg
	reg.Counter("replan_cycles_total").Inc()
	reg.Counter("replan_cycles_" + rep.Kind.String() + "_total").Inc()
	reg.Gauge("replan_dirty_strata").Set(int64(len(dirty)))
	reg.Counter("replan_dirty_strata_total").Add(int64(len(dirty)))
	reg.Counter("replan_placements_total").Add(int64(rep.Placements))
	reg.Counter("replan_moves_applied_total").Add(int64(rep.MovesApplied))
	reg.Counter("replan_moves_deferred_total").Add(int64(rep.MovesDeferred))
	reg.Counter("replan_shipped_records_total").Add(int64(rep.RecordsShipped))
	reg.Counter("replan_shipped_bytes_total").Add(int64(rep.BytesShipped))
	if reg != nil {
		reg.Histogram("replan_cycle_ns", telemetry.WideLatencyBuckets()).Observe(rep.Elapsed.Nanoseconds())
	}
	return rep, nil
}

// replanIncremental runs the dirty-strata path: sub-cluster only the
// drifted strata, run core's profile stage over the new membership,
// re-solve the sizing LP, and install a minimal-movement target.
//
// A lone dirty stratum is counted once, not re-clustered. Sub-clustering
// its members into K = 1 is the identity on membership, and the center
// k-modes converges to is the top-L of the members' per-attribute value
// counts — which the drift tracker already holds, because it counted
// every member at the last freeze and every ingest since. So the
// stratification needs no work before sizing, and the refreeze reads
// the new center off the tracker's counters instead of recounting the
// stratum. The general path stays for MaxIter = 1: k-modes never
// updates a center then, so K = 1 returns its seed record, not the
// top-L.
func (l *Loop) replanIncremental(n int, dirty []int, rep *CycleReport) error {
	sub := l.cfg.Core.Stratifier.Cluster
	lone := len(dirty) == 1 && len(l.st.Members[dirty[0]]) > 0 && sub.MaxIter != 1
	if !lone {
		if err := l.restratify(dirty); err != nil {
			return err
		}
	}
	if err := l.resize(n, rep); err != nil {
		return err
	}
	if lone {
		s := dirty[0]
		center, err := l.tracker.RefreezeMode(s, sub.L)
		if err != nil {
			return err
		}
		l.st.Centers[s] = center
	} else if err := l.tracker.Reset(l.st, dirty); err != nil {
		return err
	}
	return nil
}

// resize re-derives partition sizes for the current membership at n
// records — core's profile stage over the live strata, then its
// optimize stage (node fit and sizing LP) — and installs the plan and
// a minimal-movement target for them.
func (l *Loop) resize(n int, rep *CycleReport) error {
	plan := &core.Plan{
		Strategy: l.cfg.Core.Strategy, Alpha: l.cfg.Core.Alpha, Strat: l.st,
		Scheme: l.cfg.Core.Scheme, CorpusWeight: l.corpusWeight,
	}
	ladder, costs, _, err := core.ProfileLadder(l.st.Members, n, l.profile, l.cfg.Core)
	if err != nil {
		return err
	}
	if plan.Models, plan.Optimized, err = core.Size(l.cl, ladder, costs, n, plan.Alpha, l.cfg.Core); err != nil {
		return err
	}
	rep.ProfileRuns, rep.LPSolved = len(ladder), true
	l.setShares(plan.Optimized, n)
	plan.Sizes = plan.Optimized.Sizes
	if err := l.retarget(plan.Sizes, n); err != nil {
		return err
	}
	plan.Assign = l.target
	l.plan = plan
	l.lastSizes = append(l.lastSizes[:0], plan.Sizes...)
	l.lastN = n
	return nil
}

// restratify re-clusters only the dirty strata: their members (old and
// newly ingested) are sub-clustered into |dirty| fresh strata with the
// stratifier's own configuration; clean strata keep sketches, centers
// and members verbatim.
func (l *Loop) restratify(dirty []int) error {
	var recs []int
	for _, s := range dirty {
		recs = append(recs, l.st.Members[s]...)
	}
	if len(recs) == 0 {
		return nil
	}
	sort.Ints(recs)
	sub := l.cfg.Core.Stratifier.Cluster
	sub.K = min(len(dirty), len(recs))
	sketches := make([]sketch.Sketch, len(recs))
	for i, r := range recs {
		sketches[i] = l.st.Sketches[r]
	}
	res, err := strata.Cluster(sketches, sub)
	if err != nil {
		return fmt.Errorf("replan: re-stratifying %d dirty strata: %w", len(dirty), err)
	}
	for ci, s := range dirty {
		if ci < res.K() {
			mem := make([]int, len(res.Members[ci]))
			for i, li := range res.Members[ci] {
				mem[i] = recs[li]
			}
			l.st.Members[s] = mem
			l.st.Centers[s] = res.Centers[ci]
		} else {
			// More dirty strata than distinct members: the leftovers
			// empty out (their old centers stay as reseed points).
			l.st.Members[s] = nil
		}
		wt := 0
		for _, r := range l.st.Members[s] {
			l.st.Assign[r] = s
			wt += l.corpus.Weight(r)
		}
		l.st.WeightTotals[s] = wt
	}
	return nil
}

// setShares records each node's share of the n records the plan sized,
// which sizesFor scales to later corpus sizes.
func (l *Loop) setShares(plan *opt.Plan, n int) {
	l.shares = make([]float64, l.p)
	for i, x := range plan.X[:l.p] {
		l.shares[i] = x / float64(n)
	}
}

// sizesFor returns target partition sizes for a corpus of n records
// without re-planning: the installed sizes when n is unchanged,
// otherwise the installed shares scaled to n.
func (l *Loop) sizesFor(n int) []int {
	if n == l.lastN {
		return append([]int(nil), l.lastSizes...)
	}
	units := make([]float64, l.p)
	for i, s := range l.shares {
		units[i] = s * float64(n)
	}
	return opt.RoundToTotal(units, n)
}

// retarget installs a minimal-movement target for the given sizes: the
// live assignment extended with pending ingests, rebalanced to the new
// sizes. Pending records land only in deficit partitions, which
// Rebalance never cuts, and extend the committed lists in place
// (clipping the lists they grow): a target partition is the committed
// list's kept prefix, its pending records, then its surplus arrivals.
func (l *Loop) retarget(sizes []int, n int) error {
	ext := &partitioner.Assignment{Parts: append([][]int(nil), l.actual.Parts...)}
	j := 0
	for _, r := range l.pending {
		for j < l.p && len(ext.Parts[j]) >= sizes[j] {
			j++
		}
		if j == l.p {
			return fmt.Errorf("replan: no deficit partition for pending record %d", r)
		}
		if part := l.actual.Parts[j]; len(ext.Parts[j]) == len(part) {
			l.actual.Parts[j] = part[:len(part):len(part)]
		}
		ext.Parts[j] = append(ext.Parts[j], r)
	}
	out, _, err := partitioner.Rebalance(ext, sizes)
	if err != nil {
		return fmt.Errorf("replan: %w", err)
	}
	for j, part := range out.Parts {
		if len(part) == len(ext.Parts[j]) {
			out.Parts[j] = ext.Parts[j] // kept whole: stays extendable
		}
	}
	l.target, l.targetN, l.extends = out, n, true
	return nil
}

// diffMoves computes the migration from the committed placement (where)
// to the target: placements for records not placed anywhere yet (From =
// -1) and moves for records whose partition changes. Emission order is
// deterministic — target partitions ascending, records in target
// order — which is the order the move budget truncates in.
func diffMoves(where []int, target *partitioner.Assignment) (placements, moves []partitioner.Move) {
	for j, part := range target.Parts {
		for _, r := range part {
			switch c := where[r]; {
			case c == j:
			case c < 0:
				placements = append(placements, partitioner.Move{Record: r, From: -1, To: j})
			default:
				moves = append(moves, partitioner.Move{Record: r, From: c, To: j})
			}
		}
	}
	return placements, moves
}

// applyOps materializes the post-migration assignment: moved records
// are filtered out of their sources and appended (with placements) to
// their destinations in op order; untouched partitions share their
// slices with the previous assignment. Under an extending target
// (Loop.extends) a partition that only gains is a prefix of its target
// partition and takes it, clipped when shorter. Returns each
// partition's first changed position: the first leaving index, or the
// old length when none leaves; -1 when the partition is untouched.
func applyOps(actual, target *partitioner.Assignment, ops []partitioner.Move, extends bool) (*partitioner.Assignment, []int) {
	p := actual.P()
	leaving := make([][]int, p)
	arriving := make([][]int, p)
	for _, mv := range ops {
		arriving[mv.To] = append(arriving[mv.To], mv.Record)
		if mv.From >= 0 {
			leaving[mv.From] = append(leaving[mv.From], mv.Record)
		}
	}
	next := &partitioner.Assignment{Parts: append([][]int(nil), actual.Parts...)}
	first := make([]int, p)
	for j, part := range actual.Parts {
		first[j] = -1
		if len(arriving[j]) == 0 && len(leaving[j]) == 0 {
			continue
		}
		first[j] = len(part)
		if extends && len(leaving[j]) == 0 {
			t, m := target.Parts[j], len(part)+len(arriving[j])
			if m < len(t) {
				t = t[:m:m]
			}
			next.Parts[j] = t
			continue
		}
		out := part
		if gone := leaving[j]; len(gone) > 0 {
			set := make(map[int]bool, len(gone))
			for _, r := range gone {
				set[r] = true
			}
			// Rebalance takes tails: find the leavers scanning from the end.
			for found := 0; found < len(gone); {
				first[j]--
				if set[part[first[j]]] {
					found++
				}
			}
			out = part[:first[j]:first[j]]
			if rest := len(part) - first[j] - len(gone) + len(arriving[j]); rest > 0 {
				out = append(make([]int, 0, first[j]+rest), out...)
			}
			for _, r := range part[first[j]+1:] {
				if !set[r] {
					out = append(out, r)
				}
			}
		}
		// In place only past a committed list no handed-out slice covers.
		next.Parts[j] = append(out, arriving[j]...)
	}
	return next, first
}

// migrate moves the live placement toward the installed target under
// the move budget and, when a store is configured, ships what changed
// in every affected partition through an epoch transaction: all staged
// writes must succeed before any becomes visible. rep may be nil
// (initial placement at construction).
func (l *Loop) migrate(rep *CycleReport) error {
	placements, moves := diffMoves(l.where, l.target)
	applied := moves
	if b := l.cfg.MaxMovesPerCycle; b > 0 && len(moves) > b {
		applied = moves[:b]
	}
	if rep != nil {
		rep.Placements = len(placements)
		rep.MovesApplied = len(applied)
		rep.MovesDeferred = len(moves) - len(applied)
	}
	ops := append(placements, applied...)
	if len(ops) == 0 {
		return nil
	}
	next, first := applyOps(l.actual, l.target, ops, l.extends)
	if l.store != nil {
		records, bytes, err := l.writeAffected(next, first)
		if err != nil {
			return err
		}
		if rep != nil {
			rep.RecordsShipped, rep.BytesShipped = records, bytes
		}
	}
	l.actual = next
	for _, mv := range ops {
		l.where[mv.Record] = mv.To
	}
	l.pending = l.pending[:0]
	return nil
}

// writeAffected stages what changed in every affected partition —
// grouped by the store's write groups, groups in parallel, each group's
// writes sequential — and commits only if all writes succeeded. What
// changed is everything from the partition's first changed position
// (applyOps), widened to the offset the store rewrites from
// (SuffixStart); only that suffix is encoded and shipped. On error
// nothing is committed: reads keep serving the previous contents and
// the caller's assignment stays unchanged. Returns the records and
// bytes shipped.
func (l *Loop) writeAffected(next *partitioner.Assignment, first []int) (records, bytes int, err error) {
	var parts []int
	for j, f := range first {
		if f >= 0 {
			parts = append(parts, j)
		}
	}
	groups := partitioner.WriteGroups(l.store.WriteGroup, parts)
	txn := l.store.Begin()
	_, err = parallel.ForErr(len(groups), l.cfg.Core.Workers, func(lo, hi int) error {
		for gi := lo; gi < hi; gi++ {
			for _, j := range groups[gi] {
				part := next.Parts[j]
				keep := l.store.SuffixStart(j, first[j], len(part))
				if err := txn.WriteSuffix(j, keep, partitioner.EncodeRecords(l.corpus, part[keep:])); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	txn.Commit()
	records, bytes = txn.Shipped()
	return records, bytes, nil
}

// Plan returns the currently installed plan. The stratification it
// references is live — Ingest extends it in place. Its Assign is
// read-only and shares backing arrays with the loop's later
// assignments (see Loop).
func (l *Loop) Plan() *core.Plan { return l.plan }

// Actual returns the live (committed) placement. It is read-only and
// shares backing arrays with the loop's targets and later placements
// (see Loop).
func (l *Loop) Actual() *partitioner.Assignment { return l.actual }

// Store returns the epoch store the loop migrates through (nil when no
// base store was configured).
func (l *Loop) Store() *EpochStore { return l.store }

// Tracker exposes the drift tracker (for inspection; mutating it
// corrupts the loop).
func (l *Loop) Tracker() *strata.DriftTracker { return l.tracker }

// Pending returns how many ingested records await placement.
func (l *Loop) Pending() int { return len(l.pending) }

// Len returns the live corpus size.
func (l *Loop) Len() int { return l.corpus.Len() }

// Corpus returns the live corpus (frozen base plus ingested records),
// e.g. for anchoring a cold core.BuildPlan against the loop's state.
func (l *Loop) Corpus() pivots.Corpus { return l.corpus }
