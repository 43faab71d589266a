package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"pareto/internal/core"
	"pareto/internal/kvstore"
	"pareto/internal/partitioner"
	"pareto/internal/pivots"
	"pareto/internal/replan"
	"pareto/internal/sketch"
	"pareto/internal/strata"
	"pareto/internal/telemetry"
)

// Replan program configuration, as paretobench -replan runs it.
const (
	replanNodes     = 4
	replanAlpha     = 0.999
	replanWidth     = 24
	replanThreshold = 5e-5
	replanWindow    = 64 // terms per topic block
	replanTerms     = 12 // terms per document
	replanStream    = "replan:stream"
	// replanReviseMin is the least number of documents a revision sends
	// to each stratum in its first round.
	replanReviseMin = 8
	// replanReviseRounds bounds the rounds of one revision.
	replanReviseRounds = 6
	// replanReviseTries bounds the distinct members of one stratum whose
	// terms a revision tries to replace.
	replanReviseTries = 8
)

var replanWorkload = workload{
	name:  wReplan,
	why:   "strata, lp and partitioner used incrementally and warm (drift, partial re-cluster, warm LP, budgeted migration over kvstore): the pair of tree_mining_mem's cold planner, so opposite movement shows.",
	reps:  func(sizes, int) int { return 1 },
	setup: setupReplan,
}

// opKind is what one scheduled batch is meant to make the loop do.
type opKind int

const (
	opIncremental opKind = iota // drift one stratum
	opQuiet                     // no traffic: nothing is dirty
	opFull                      // drift every stratum
)

// replanOp is one scheduled operation: the wire records the producer
// pushes before the controller polls and cycles.
type replanOp struct {
	kind    opKind
	records [][]byte
}

type replanUnit struct {
	r    *run
	ops  []replanOp
	loop *replan.Loop
	tail *replan.Tailer
	// hasher is the loop's sketch family, for the revision generator.
	hasher *sketch.Hasher

	srv      *servers
	clients  []*kvstore.Client
	producer *kvstore.Client
	reg      *telemetry.Registry // servers' registry in the traced pass
	before   *telemetry.Snapshot

	reports []*replan.CycleReport
	after   *telemetry.Snapshot
}

// replanCorpus is the topic-blocked text corpus paretobench -replan
// drifts against, with the window each document draws its terms from
// chosen by the seed: doc i belongs to topic i%topics and holds
// replanTerms consecutive terms of that topic's block.
func replanCorpus(rng *rand.Rand, n, topics int) (*pivots.TextCorpus, error) {
	docs := make([]pivots.Doc, n)
	for i := range docs {
		docs[i] = pivots.Doc{Terms: topicTerms(i%topics, rng.Intn(replanWindow))}
	}
	return pivots.NewTextCorpus(docs, topics*replanWindow)
}

func topicTerms(topic, offset int) []uint32 {
	t := make([]uint32, replanTerms)
	for k := range t {
		t[k] = uint32(topic*replanWindow + (offset+k)%replanWindow)
	}
	sort.Slice(t, func(a, b int) bool { return t[a] < t[b] })
	return t
}

// alienTerm is a term outside every topic block; the operation number
// and k make it unique.
func alienTerm(op, k int) uint32 { return 1<<30 + uint32(op)<<20 + uint32(k) }

// wire encodes documents as the Tailer expects them on the stream: one
// length-prefixed text record each.
func wire(docs []pivots.Doc) ([][]byte, error) {
	for _, d := range docs {
		sort.Slice(d.Terms, func(a, b int) bool { return d.Terms[a] < d.Terms[b] })
	}
	c, err := pivots.NewTextCorpus(docs, 1<<31)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(docs))
	for i := range out {
		out[i] = c.AppendRecord(nil, i)
	}
	return out, nil
}

// schedule builds the seeded traffic: per ten operations nine drift
// one stratum (a batch of identical documents made only of alien terms
// lands in one stratum and dilutes it) and one is quiet. At one and two
// thirds of the run the operation is a revision of the live corpus,
// which drifts every stratum; its records are made when it is due (see
// revision).
func schedule(rng *rand.Rand, sz sizes, ops int) ([]replanOp, error) {
	out := make([]replanOp, ops)
	for c := 1; c <= ops; c++ {
		op := &out[c-1]
		switch {
		case c == ops/3 || c == 2*ops/3:
			op.kind = opFull
		case c%10 == 9:
			op.kind = opQuiet
		default:
			op.kind = opIncremental
			terms := make([]uint32, 6+rng.Intn(7))
			for j := range terms {
				terms[j] = alienTerm(c, j)
			}
			docs := make([]pivots.Doc, sz.ReplanBatch)
			for k := range docs {
				docs[k] = pivots.Doc{Terms: terms}
			}
			var err error
			if op.records, err = wire(docs); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// revision is the traffic that drifts every stratum: documents the
// store already holds, delivered again, some with a few terms replaced.
// Such a document drifts stratum s if the frozen centres assign it to s
// and the centre of s explains it worse than it explains s on average,
// so that it dilutes the stratum's coverage. The generator is a closed
// loop: it reads the loop's public view of its strata and its drift
// tracker, makes such a document for every stratum that has not drifted
// yet (see diluter), and is called again until none is left. Round 0
// sends one copy of it per 25 members of the stratum, and at least
// replanReviseMin; every later round doubles that. An empty stratum
// cannot be drifted; when only strata without such a document are left,
// revision returns no records. It is deterministic for a seed because
// the loop is.
func (u *replanUnit) revision(c, round int) ([][]byte, error) {
	st := u.loop.Plan().Strat
	drifted := map[int]bool{}
	for _, s := range u.loop.Tracker().DirtyStrata() {
		drifted[s] = true
	}
	var docs []pivots.Doc
	for s, members := range st.Members {
		if drifted[s] {
			continue
		}
		terms, err := u.diluter(st, s, c)
		if err != nil {
			return nil, err
		}
		if terms == nil {
			continue
		}
		n := len(members) / 25
		if n < replanReviseMin {
			n = replanReviseMin
		}
		for k := 0; k < n<<round; k++ {
			docs = append(docs, pivots.Doc{Terms: terms})
		}
	}
	if len(docs) == 0 {
		return nil, nil
	}
	return wire(docs)
}

// diluter makes the document that drifts stratum s in operation c, or
// nil if it finds none. It first looks for a member to deliver again
// unchanged: the one the centre explains worst, among those it explains
// worse than average and that the frozen centres assign to s again.
// Where there is none (the centre explains all members equally well, as
// in a stratum of identical documents), it takes the members the centre
// explains best, which sit most firmly in s, and replaces runs of their
// terms with terms no document has, until the result is explained worse
// than average and still assigned to s.
func (u *replanUnit) diluter(st *strata.Stratification, s, c int) ([]uint32, error) {
	members := st.Members[s]
	if len(members) == 0 {
		return nil, nil
	}
	width := len(st.Sketches[members[0]])
	// byMiss[d] lists the members at mismatch distance d from the centre.
	byMiss := make([][]int, width+1)
	total := 0
	for _, m := range members {
		d := mismatch(&st.Centers[s], st.Sketches[m])
		byMiss[d] = append(byMiss[d], m)
		total += d
	}
	dilutes := func(sk sketch.Sketch) bool {
		return mismatch(&st.Centers[s], sk)*len(members) > total && nearest(st.Centers, sk) == s
	}
	for d := width; d*len(members) > total; d-- {
		for _, m := range byMiss[d] {
			if dilutes(st.Sketches[m]) {
				return u.terms(m)
			}
		}
	}
	// Members with one sketch are one try.
	tried := map[string]bool{}
	for _, ms := range byMiss {
		for _, m := range ms {
			key := fmt.Sprint(st.Sketches[m])
			if tried[key] {
				continue
			}
			if len(tried) == replanReviseTries {
				return nil, nil
			}
			tried[key] = true
			terms, err := u.terms(m)
			if err != nil {
				return nil, err
			}
			// Replace every run of w neighbouring terms, short runs first.
			for w := 1; w <= len(terms); w++ {
				for j := 0; j+w <= len(terms); j++ {
					v := append([]uint32(nil), terms...)
					items := make([]sketch.Item, len(v))
					for k := range v {
						if k >= j && k < j+w {
							v[k] = alienTerm(c, s<<8|k)
						}
						items[k] = sketch.Item(v[k])
					}
					if dilutes(u.hasher.Sketch(items)) {
						return v, nil
					}
				}
			}
		}
	}
	return nil, nil
}

// terms returns a copy of the terms of live document m.
func (u *replanUnit) terms(m int) ([]uint32, error) {
	doc, _, err := pivots.DecodeTextRecord(u.loop.Corpus().AppendRecord(nil, m))
	if err != nil {
		return nil, err
	}
	return append([]uint32(nil), doc.Terms...), nil
}

// mismatch counts the coordinates of sk that are not among the centre's
// candidate values: the stratifier's distance.
func mismatch(c *strata.Center, sk sketch.Sketch) int {
	d := 0
	for a, v := range sk {
		hit := false
		for _, w := range c.Values[a] {
			if w == v {
				hit = true
				break
			}
		}
		if !hit {
			d++
		}
	}
	return d
}

// nearest is the centre at the least mismatch distance from sk, the
// lowest index on a tie, as the stratifier and the drift tracker choose.
func nearest(centers []strata.Center, sk sketch.Sketch) int {
	best, bestDist := 0, len(sk)+1
	for c := range centers {
		if d := mismatch(&centers[c], sk); d < bestDist {
			best, bestDist = c, d
		}
	}
	return best
}

func setupReplan(r *run) (unit, error) {
	rng := rand.New(rand.NewSource(r.seed))
	base, err := replanCorpus(rng, r.sz.ReplanDocs, r.sz.ReplanTopics)
	if err != nil {
		return nil, err
	}
	ops := r.loopOps(r.sz.ReplanOps, r.sz.ReplanTracedOps)
	u := &replanUnit{r: r}
	if u.ops, err = schedule(rng, r.sz, ops); err != nil {
		return nil, err
	}
	if u.hasher, err = sketch.NewHasher(replanWidth, stratSeed); err != nil {
		return nil, err
	}
	cl, err := paperCluster(replanNodes)
	if err != nil {
		return nil, err
	}
	var loopReg *telemetry.Registry
	if r.traced {
		u.reg, loopReg = telemetry.NewRegistry(), telemetry.NewRegistry()
	}
	u.srv, err = startServers(replanNodes, func(_ int, s *kvstore.Server) error {
		s.SetTelemetry(u.reg)
		return nil
	})
	if err != nil {
		return nil, err
	}
	kvs := make([]kvstore.KV, replanNodes)
	for i, addr := range u.srv.addrs {
		c, err := kvstore.Dial(addr, dialTimeout)
		if err != nil {
			u.close()
			return nil, err
		}
		u.clients = append(u.clients, c)
		kvs[i] = c
	}
	// The stream lives on node 0; producer and tailer each have their
	// own connection to it.
	if u.producer, err = kvstore.Dial(u.srv.addrs[0], dialTimeout); err != nil {
		u.close()
		return nil, err
	}
	tc, err := kvstore.Dial(u.srv.addrs[0], dialTimeout)
	if err != nil {
		u.close()
		return nil, err
	}
	u.clients = append(u.clients, tc)
	u.tail = &replan.Tailer{Client: tc, Key: replanStream, Kind: pivots.TextData}
	kv, err := partitioner.NewKVStoreKV(kvs, pipelineWidth, "replan")
	if err != nil {
		u.close()
		return nil, err
	}
	// The job's cost is affine in the sample's total weight, so the
	// models move when the traffic changes the mix of document sizes.
	profile := func(indices []int) (float64, error) {
		var c pivots.Corpus = base
		if u.loop != nil {
			c = u.loop.Corpus()
		}
		w := 0
		for _, i := range indices {
			w += c.Weight(i)
		}
		return 50_000 + 170*float64(w), nil
	}
	u.loop, err = replan.New(base, cl, profile, replan.Config{
		Core: core.Config{
			Strategy: core.HetEnergyAware, Alpha: replanAlpha, Scheme: partitioner.Representative,
			Stratifier: strata.StratifierConfig{
				SketchWidth: replanWidth,
				Cluster:     strata.Config{K: r.sz.ReplanTopics, L: 3, Seed: kmodesSeed},
				Seed:        stratSeed,
			},
			SampleSeed: sampleSeed, Workers: r.workers,
		},
		Drift:            strata.DriftConfig{Threshold: replanThreshold},
		MaxMovesPerCycle: r.sz.ReplanBudget,
		Store:            &storeWrapper{base: kv, r: r, prefix: "kvstore"},
		Telemetry:        loopReg,
	})
	if err != nil {
		u.close()
		return nil, err
	}
	return u, nil
}

func (u *replanUnit) rep(int) (sample, error) {
	r, s := u.r, sample{}
	u.before = snap(u.reg)
	var opMs, pollMs, fullMs, incrMs []float64
	records := 0
	for c, op := range u.ops {
		// push hands one batch to the stream and has the controller
		// ingest it; an operation's latency is its polls plus its cycle.
		var pollD time.Duration
		push := func(batch [][]byte) error {
			if len(batch) > 0 {
				_, err := u.producer.RPush(replanStream, batch...)
				r.acct.op("producer.RPush", err)
				if err != nil {
					return err
				}
				records += len(batch)
			}
			d, err := r.leaf("replan.poll", func() error {
				n, err := u.tail.Poll(u.loop)
				if err == nil && n != len(batch) {
					err = fmt.Errorf("polled %d records, pushed %d", n, len(batch))
				}
				return err
			})
			r.acct.op("tailer.Poll", err)
			pollD += d
			return err
		}
		var err error
		if op.kind != opFull {
			err = push(op.records)
		}
		for round := 0; op.kind == opFull && round < replanReviseRounds && err == nil; round++ {
			var batch [][]byte
			// The generator's time is the traffic's, not the loop's: it
			// gets a span of its own and stays out of the latency.
			r.leaf("traffic.revision", func() error {
				batch, err = u.revision(c+1, round)
				return err
			})
			if err != nil || len(batch) == 0 {
				break
			}
			err = push(batch)
		}
		if err != nil {
			return nil, err
		}
		// A revision that could not reach every stratum does not make a
		// full replan: the schedule follows the traffic.
		if tr := u.loop.Tracker(); op.kind == opFull && len(tr.DirtyStrata()) < tr.K() {
			fmt.Fprintf(os.Stderr, "replan_online: operation %d: the revision drifted %d of %d strata\n", c+1, len(tr.DirtyStrata()), tr.K())
			u.ops[c].kind = opIncremental
			if len(tr.DirtyStrata()) == 0 {
				u.ops[c].kind = opQuiet
			}
		}
		var rep *replan.CycleReport
		cycleD, err := r.stage("replan.cycle", func() error {
			var err error
			rep, err = u.loop.Cycle()
			return err
		})
		r.acct.op("loop.Cycle", err)
		if err != nil {
			return nil, fmt.Errorf("cycle %d: %w", c+1, err)
		}
		d := ms(pollD + cycleD)
		opMs = append(opMs, d)
		pollMs = append(pollMs, ms(pollD))
		switch rep.Kind {
		case replan.CycleFull:
			fullMs = append(fullMs, d)
		case replan.CycleIncremental:
			incrMs = append(incrMs, d)
		}
		u.reports = append(u.reports, rep)
	}
	u.after = snap(u.reg)
	s["_records"] = float64(records)
	s["op_ms_p50"] = percentile(opMs, 50)
	s["op_ms_p90"] = percentile(opMs, 90)
	s["replan.poll_ms"] = median(pollMs)
	if len(fullMs) > 0 && len(incrMs) > 0 {
		s["replan.full_cycle_ms"] = median(fullMs)
		s["replan.incr_speedup"] = median(fullMs) / median(incrMs)
	}
	return s, nil
}

func (u *replanUnit) audit(i int, s sample) error {
	r := u.r
	if r.traced {
		ss := spanSet(r.tr.snapshot()).ofRep(i)
		var self []float64
		for _, sp := range ss {
			if sp.Name == "replan.cycle" {
				self = append(self, float64(ss.selfNs(sp.ID))/1e6)
			}
		}
		s["replan.cycle_self_ms"] = median(self)
		s["kvstore.write_ms"] = ss.unionMs("kvstore.write")
		s["kvstore.read_ms"] = ss.unionMs("kvstore.read")
		kvServerMetrics(s, u.before, u.after)
	}
	// Drain what the move budget deferred.
	for drained := 0; ; drained++ {
		if drained > 1000 {
			return errors.New("migration did not converge after 1000 drain cycles")
		}
		rep, err := u.loop.Cycle()
		r.acct.op("loop.Cycle (drain)", err)
		if err != nil {
			return err
		}
		if rep.Converged && u.loop.Pending() == 0 {
			break
		}
	}
	var want, got [3]int
	for _, op := range u.ops {
		want[op.kind]++
	}
	var warm, cold, runs, hits, applied, deferred int
	for _, rep := range u.reports {
		switch rep.Kind {
		case replan.CycleIncremental:
			got[opIncremental]++
		case replan.CycleClean:
			got[opQuiet]++
		case replan.CycleFull:
			got[opFull]++
		}
		if rep.LPSolved && rep.LPWarm {
			warm++
		} else if rep.LPSolved {
			cold++
		}
		runs += rep.ProfileRuns
		hits += rep.ProfileCacheHits
		applied += rep.MovesApplied
		deferred += rep.MovesDeferred
	}
	r.acct.check("replan.schedule", got == want, "cycle kinds (incremental, clean, full) were %v, the schedule has %v", got, want)
	s["replan.cycles_incremental"] = float64(got[opIncremental])
	s["replan.cycles_clean"] = float64(got[opQuiet])
	s["replan.cycles_full"] = float64(got[opFull])
	s["replan.lp_warm"] = float64(warm)
	s["replan.lp_cold"] = float64(cold)
	s["replan.profile_runs"] = float64(runs)
	s["replan.profile_cache_hits"] = float64(hits)
	s["replan.moves_applied"] = float64(applied)
	s["replan.moves_deferred"] = float64(deferred)

	actual := u.loop.Actual()
	err := actual.Validate(u.loop.Len())
	r.acct.check("actual.validate", err == nil, "%v", err)
	for j := 0; j < actual.P(); j++ {
		recs, err := u.loop.Store().ReadPartition(j)
		if err != nil {
			return err
		}
		err = verifyPartition(u.loop.Corpus(), actual, j, recs)
		r.acct.check("stored.bytes", err == nil, "%v", err)
	}
	return nil
}

func (u *replanUnit) close() error {
	var errs []error
	for _, c := range append(u.clients, u.producer) {
		if c != nil {
			errs = append(errs, c.Close())
		}
	}
	if u.srv != nil {
		errs = append(errs, u.srv.close())
	}
	return errors.Join(errs...)
}
