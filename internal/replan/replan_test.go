package replan

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"pareto/internal/cluster"
	"pareto/internal/core"
	"pareto/internal/datasets"
	"pareto/internal/energy"
	"pareto/internal/opt"
	"pareto/internal/partitioner"
	"pareto/internal/pivots"
	"pareto/internal/sketch"
	"pareto/internal/strata"
	"pareto/internal/telemetry"
)

// replanDocs generates the planted-topic text dataset every loop test
// runs on (~800 docs at frac 0.001).
func replanDocs(t testing.TB) ([]pivots.Doc, int) {
	t.Helper()
	cfg := datasets.RCV1Like(0.001)
	docs, _, err := datasets.GenerateText(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return docs, cfg.VocabSize
}

func paperCluster(t testing.TB, p int) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.PaperCluster(p, energy.DefaultPanel(), 172, 48)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// weightProfile prices a sample at 2000× its record-weight sum — the
// linear regime where the sizing LP is exact. Closing over the full
// corpus works for both the cold and the live path because records are
// ingested in index order.
func weightProfile(c pivots.Corpus) core.ProfileFunc {
	return func(indices []int) (float64, error) {
		var cost float64
		for _, i := range indices {
			cost += 2000 * float64(c.Weight(i))
		}
		return cost, nil
	}
}

func loopCoreConfig(workers int) core.Config {
	return core.Config{
		Strategy: core.HetEnergyAware,
		Alpha:    0.999,
		Scheme:   partitioner.Representative,
		Stratifier: strata.StratifierConfig{
			SketchWidth: 24,
			Cluster:     strata.Config{K: 8, L: 3, Seed: 7},
			Seed:        5,
		},
		SampleSeed: 3,
		Workers:    workers,
	}
}

// ingest feeds one wire record into the loop, exactly as the Tailer
// would, and returns the stratum it joined.
func ingest(t testing.TB, l *Loop, raw []byte) int {
	t.Helper()
	s, err := l.Ingest(raw)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// ingestDocs feeds docs[from:] into the loop as wire records.
func ingestDocs(t testing.TB, l *Loop, full *pivots.TextCorpus, from int) {
	t.Helper()
	for i := from; i < full.Len(); i++ {
		ingest(t, l, full.AppendRecord(nil, i))
	}
}

// textRecord frames terms, ascending, as one text wire record.
func textRecord(terms ...uint32) []byte {
	return (&pivots.TextCorpus{Docs: []pivots.Doc{{Terms: terms}}}).AppendRecord(nil, 0)
}

// affineProfile prices a sample as a fixed overhead plus a per-record
// cost — exactly affine in the sample size. The fit recovers it with
// zero residual.
func affineProfile() core.ProfileFunc {
	return func(indices []int) (float64, error) {
		return 50_000 + 2_000*float64(len(indices)), nil
	}
}

// alienTerm is a term above every test corpus's vocabulary; gen and
// i < 256 make it unique.
func alienTerm(gen, i int) uint32 { return 1<<31 | uint32(gen)<<8 | uint32(i) }

// alienRecord builds a text record of n terms far from any planted topic, used to
// drift exactly one stratum (identical sets always land on the same
// nearest frozen center).
func alienRecord(gen, n int) []byte {
	terms := make([]uint32, n)
	for i := range terms {
		terms[i] = alienTerm(gen, i)
	}
	return textRecord(terms...)
}

// TestAllDirtyCycleBitIdenticalToCold is the acceptance criterion: when
// every stratum is dirty, the incremental loop's cycle must equal a
// cold full core.BuildPlan over the union corpus — deep-equal sizes,
// placement, strata, models and LP solution — at several worker counts.
func TestAllDirtyCycleBitIdenticalToCold(t *testing.T) {
	docs, vocab := replanDocs(t)
	full, err := pivots.NewTextCorpus(docs, vocab)
	if err != nil {
		t.Fatal(err)
	}
	split := len(docs) * 3 / 4
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		base, err := pivots.NewTextCorpus(docs[:split], vocab)
		if err != nil {
			t.Fatal(err)
		}
		cl := paperCluster(t, 4)
		l, err := New(base, cl, weightProfile(full), Config{
			Core:  loopCoreConfig(workers),
			Drift: strata.DriftConfig{Threshold: 0}, // every stratum always dirty
		})
		if err != nil {
			t.Fatal(err)
		}
		ingestDocs(t, l, full, split)
		rep, err := l.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Kind != CycleFull {
			t.Fatalf("workers %d: all-dirty cycle took the %v path", workers, rep.Kind)
		}
		cold, err := core.BuildPlan(full, cl, weightProfile(full), loopCoreConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		live := l.Plan()
		if !reflect.DeepEqual(live.Sizes, cold.Sizes) {
			t.Errorf("workers %d: sizes %v, cold %v", workers, live.Sizes, cold.Sizes)
		}
		if !reflect.DeepEqual(live.Assign.Parts, cold.Assign.Parts) {
			t.Errorf("workers %d: placement differs from cold plan", workers)
		}
		if !reflect.DeepEqual(live.Strat.Members, cold.Strat.Members) {
			t.Errorf("workers %d: strata differ from cold plan", workers)
		}
		if !reflect.DeepEqual(live.Models, cold.Models) {
			t.Errorf("workers %d: models differ from cold plan", workers)
		}
		if !reflect.DeepEqual(live.Optimized.X, cold.Optimized.X) {
			t.Errorf("workers %d: LP solution differs from cold plan", workers)
		}
		// The loop also migrated to the cold placement.
		if err := l.Actual().Validate(full.Len()); err != nil {
			t.Fatal(err)
		}
		assertSameSets(t, l.Actual(), cold.Assign)
	}
}

// TestFullCycleClustersHeldSketches: a full cycle clusters the sketches
// the loop already holds instead of re-hashing the corpus. Over three
// full cycles with ingests between them, every record's sketch in the
// installed stratification is the one the loop held before the cycle
// (same backing arrays), equals what a fresh hasher makes of the
// record's items, and the plan did not fall back to the in-process
// stratifier.
func TestFullCycleClustersHeldSketches(t *testing.T) {
	docs, vocab := replanDocs(t)
	full, err := pivots.NewTextCorpus(docs, vocab)
	if err != nil {
		t.Fatal(err)
	}
	n := len(docs)
	cuts := []int{n / 2, 2 * n / 3, 5 * n / 6, n}
	base, err := pivots.NewTextCorpus(docs[:cuts[0]], vocab)
	if err != nil {
		t.Fatal(err)
	}
	cfg := loopCoreConfig(2)
	l, err := New(base, paperCluster(t, 4), weightProfile(full), Config{
		Core:  cfg,
		Drift: strata.DriftConfig{Threshold: 0}, // every stratum always dirty
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := sketch.NewHasher(cfg.Stratifier.Width(), cfg.Stratifier.Seed)
	if err != nil {
		t.Fatal(err)
	}
	var items []sketch.Item
	for cycle := 1; cycle < len(cuts); cycle++ {
		for i := cuts[cycle-1]; i < cuts[cycle]; i++ {
			ingest(t, l, full.AppendRecord(nil, i))
		}
		held := l.Plan().Strat.Sketches
		rep, err := l.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Kind != CycleFull {
			t.Fatalf("cycle %d: all-dirty cycle took the %v path", cycle, rep.Kind)
		}
		plan := l.Plan()
		if plan.DegradedStratify {
			t.Fatalf("cycle %d: full cycle fell back to re-sketching: %s", cycle, plan.DegradedReason)
		}
		got := plan.Strat.Sketches
		if len(got) != cuts[cycle] || len(held) != len(got) || &got[0] != &held[0] {
			t.Fatalf("cycle %d: stratification does not hold the loop's sketch array (%d of %d records)", cycle, len(got), cuts[cycle])
		}
		for i, sk := range got {
			if &sk[0] != &held[i][0] {
				t.Fatalf("cycle %d: record %d was re-hashed", cycle, i)
			}
			items = l.Corpus().AppendItems(items[:0], i)
			if want := oracle.Sketch(items); !reflect.DeepEqual(sk, want) {
				t.Fatalf("cycle %d: record %d's held sketch differs from a fresh hasher's", cycle, i)
			}
		}
	}
}

// assertSameSets checks two assignments hold identical record sets per
// partition (migration preserves membership, not intra-partition order).
func assertSameSets(t *testing.T, got, want *partitioner.Assignment) {
	t.Helper()
	if got.P() != want.P() {
		t.Fatalf("partition counts %d vs %d", got.P(), want.P())
	}
	for j := range got.Parts {
		g := append([]int(nil), got.Parts[j]...)
		w := append([]int(nil), want.Parts[j]...)
		sort.Ints(g)
		sort.Ints(w)
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("partition %d membership differs", j)
		}
	}
}

// TestIncrementalCycleSolvesLP: a drifting batch that dirties a strict
// subset of the strata takes the incremental path, which sizes
// partitions with its own LP solve and leaves nothing pending.
func TestIncrementalCycleSolvesLP(t *testing.T) {
	docs, vocab := replanDocs(t)
	base, err := pivots.NewTextCorpus(docs, vocab)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	cl := paperCluster(t, 4)
	l, err := New(base, cl, affineProfile(), Config{
		Core:      loopCoreConfig(2),
		Drift:     strata.DriftConfig{Threshold: 1e-9},
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		ingest(t, l, alienRecord(1, 6))
	}
	rep, err := l.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != CycleIncremental {
		t.Fatalf("first drifting cycle took the %v path (dirty %v)", rep.Kind, rep.Dirty)
	}
	if len(rep.Dirty) == 0 || len(rep.Dirty) == l.Tracker().K() {
		t.Fatalf("dirty strata %v — want a strict subset", rep.Dirty)
	}
	if !rep.LPSolved {
		t.Error("first incremental cycle did not solve the sizing LP")
	}
	for i := 0; i < 12; i++ {
		ingest(t, l, alienRecord(2, 6))
	}
	rep, err = l.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != CycleIncremental {
		t.Fatalf("second drifting cycle took the %v path", rep.Kind)
	}
	if !rep.LPSolved {
		t.Error("second incremental cycle did not solve the sizing LP")
	}
	if l.Pending() != 0 {
		t.Errorf("%d records still pending after cycles", l.Pending())
	}
	if err := l.Actual().Validate(l.Len()); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("replan_cycles_incremental_total").Value() != 2 {
		t.Errorf("incremental cycle counter = %d, want 2", reg.Counter("replan_cycles_incremental_total").Value())
	}
}

// TestIncrementalCycleIsColdPipelineOverLoopStrata ties the incremental
// path to the cold one: after every drifting incremental cycle, a cold
// core.BuildPlan over the live corpus, handed the loop's strata in place
// of stratifying, must reproduce the loop's models and its whole
// optimized plan (X, sizes, makespan, dirty energy). The floor
// configuration builds the sizing LP with its MinSize rows (slack at
// these sizes: the smallest partition holds about 1.3 floors).
// (TestAllDirtyCycleBitIdenticalToCold covers only the CycleFull branch,
// which is BuildPlan.)
func TestIncrementalCycleIsColdPipelineOverLoopStrata(t *testing.T) {
	docs, vocab := replanDocs(t)
	base, err := pivots.NewTextCorpus(docs, vocab)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		weight bool
		floor  float64
	}{
		{name: "affine"},
		{name: "weight", weight: true},
		{name: "affine floor", floor: 0.25},
	} {
		// The weight profile reads whatever corpus live holds: the base
		// while New plans, the loop's growing corpus afterwards.
		var live pivots.Corpus = base
		profile := affineProfile()
		if c.weight {
			profile = func(indices []int) (float64, error) { return weightProfile(live)(indices) }
		}
		cfg := loopCoreConfig(2)
		cfg.MinPartitionFrac = c.floor
		cl := paperCluster(t, 4)
		l, err := New(base, cl, profile, Config{
			Core:  cfg,
			Drift: strata.DriftConfig{Threshold: 1e-9},
		})
		if err != nil {
			t.Fatal(err)
		}
		live = l.Corpus()
		for cycle := 1; cycle <= 6; cycle++ {
			for i := 0; i < 12; i++ {
				ingest(t, l, alienRecord(cycle, 6+cycle))
			}
			rep, err := l.Cycle()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Kind != CycleIncremental {
				t.Fatalf("%s cycle %d: took the %v path", c.name, cycle, rep.Kind)
			}
			got := l.Plan()
			coldCfg := cfg
			coldCfg.DistStratify = func(pivots.Corpus, strata.StratifierConfig) (*strata.Stratification, error) {
				return got.Strat, nil
			}
			cold, err := core.BuildPlan(l.Corpus(), cl, profile, coldCfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Models, cold.Models) {
				t.Errorf("%s cycle %d: models differ from the cold pipeline:\nloop %+v\ncold %+v", c.name, cycle, got.Models, cold.Models)
			}
			if !reflect.DeepEqual(got.Optimized, cold.Optimized) {
				t.Errorf("%s cycle %d: optimized plan differs from the cold pipeline:\nloop %+v\ncold %+v", c.name, cycle, got.Optimized, cold.Optimized)
			}
		}
	}
}

// TestMoveBudgetAndDeferredDrain asserts MaxMovesPerCycle is never
// exceeded and that deferred moves drain to convergence across cycles,
// with the store following every committed step.
func TestMoveBudgetAndDeferredDrain(t *testing.T) {
	docs, vocab := replanDocs(t)
	full, err := pivots.NewTextCorpus(docs, vocab)
	if err != nil {
		t.Fatal(err)
	}
	split := len(docs) * 3 / 4
	base, err := pivots.NewTextCorpus(docs[:split], vocab)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	cl := paperCluster(t, 4)
	const budget = 7
	l, err := New(base, cl, weightProfile(full), Config{
		Core:             loopCoreConfig(2),
		Drift:            strata.DriftConfig{Threshold: 0},
		MaxMovesPerCycle: budget,
		Store:            partitioner.NewMemoryStore(),
		Telemetry:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ingestDocs(t, l, full, split)
	n := full.Len()
	prevDeferred := -1
	converged := false
	for i := 0; i < 200; i++ {
		rep, err := l.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		if rep.MovesApplied > budget {
			t.Fatalf("cycle %d applied %d moves past the budget %d", i, rep.MovesApplied, budget)
		}
		if prevDeferred >= 0 && rep.MovesDeferred > prevDeferred {
			t.Fatalf("cycle %d deferred %d moves after %d — not draining", i, rep.MovesDeferred, prevDeferred)
		}
		prevDeferred = rep.MovesDeferred
		if err := l.Actual().Validate(n); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if rep.Converged {
			converged = true
			break
		}
	}
	if !converged {
		t.Fatal("deferred moves never drained")
	}
	assertSameSets(t, l.Actual(), l.target)
	if reg.Counter("replan_moves_deferred_total").Value() == 0 {
		t.Error("budget never deferred anything — test exercised nothing")
	}
	// The committed store mirrors the live placement record-for-record.
	st := l.Store()
	for j := 0; j < st.p; j++ {
		records, err := st.ReadPartition(j)
		if err != nil {
			t.Fatal(err)
		}
		want := l.Actual().Parts[j]
		if len(records) != len(want) {
			t.Fatalf("partition %d holds %d records, want %d", j, len(records), len(want))
		}
		for i, rec := range records {
			if got := full.AppendRecord(nil, want[i]); !reflect.DeepEqual(rec, got) {
				t.Fatalf("partition %d record %d bytes differ", j, i)
			}
		}
	}
}

func TestCleanCyclePlacesPendingWithoutReplanning(t *testing.T) {
	docs, vocab := replanDocs(t)
	full, err := pivots.NewTextCorpus(docs, vocab)
	if err != nil {
		t.Fatal(err)
	}
	split, mid := len(docs)-10, len(docs)-5
	base, err := pivots.NewTextCorpus(docs[:split], vocab)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	cl := paperCluster(t, 4)
	l, err := New(base, cl, weightProfile(full), Config{
		Core:      loopCoreConfig(2),
		Drift:     strata.DriftConfig{Threshold: 0.9}, // nothing ever drifts this far
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := l.Plan().Optimized
	// wantSizes is the clean retarget's sizing at n records: each node's
	// fractional LP share of the records the installed plan sized.
	wantSizes := func(n int) []int {
		sized := 0
		for _, s := range l.Plan().Sizes {
			sized += s
		}
		if sized != base.Len() {
			t.Fatalf("installed plan sized %d records, want the base corpus's %d", sized, base.Len())
		}
		units := make([]float64, len(before.X))
		for i, x := range before.X {
			units[i] = x / float64(sized) * float64(n)
		}
		return opt.RoundToTotal(units, n)
	}
	// Two batches, one clean cycle each: the second scales the plan's
	// shares again, not the first cycle's target.
	for batch, end := range []int{mid, full.Len()} {
		for i := l.Len(); i < end; i++ {
			ingest(t, l, full.AppendRecord(nil, i))
		}
		rep, err := l.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Kind != CycleClean {
			t.Fatalf("batch %d: cycle took the %v path (dirty %v)", batch, rep.Kind, rep.Dirty)
		}
		if rep.Placements != 5 {
			t.Errorf("batch %d: placed %d records, want 5", batch, rep.Placements)
		}
		if rep.LPSolved {
			t.Errorf("batch %d: clean cycle ran the LP", batch)
		}
		if l.Plan().Optimized != before {
			t.Errorf("batch %d: clean cycle reinstalled the plan", batch)
		}
		if l.Pending() != 0 || l.Len() != end {
			t.Errorf("batch %d: pending %d len %d after clean cycle", batch, l.Pending(), l.Len())
		}
		if err := l.Actual().Validate(end); err != nil {
			t.Fatal(err)
		}
		if got, want := l.Actual().Sizes(), wantSizes(end); !slices.Equal(got, want) {
			t.Errorf("batch %d: sizes %v at %d records, want %v", batch, got, end, want)
		}
	}
	// A third cycle with no traffic is a no-op.
	rep, err := l.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != CycleClean || rep.Placements != 0 || rep.MovesApplied != 0 {
		t.Errorf("idle cycle: %+v", rep)
	}
	if reg.Counter("replan_cycles_clean_total").Value() != 3 {
		t.Errorf("clean counter = %d, want 3", reg.Counter("replan_cycles_clean_total").Value())
	}
}

func TestNewValidation(t *testing.T) {
	docs, vocab := replanDocs(t)
	base, err := pivots.NewTextCorpus(docs[:100], vocab)
	if err != nil {
		t.Fatal(err)
	}
	cl := paperCluster(t, 4)
	cfg := loopCoreConfig(1)
	bad := cfg
	bad.Alpha = 1.5
	if _, err := New(base, cl, weightProfile(base), Config{Core: bad}); err == nil {
		t.Error("alpha out of range accepted")
	}
	if _, err := New(base, cl, weightProfile(base), Config{Core: cfg, MaxMovesPerCycle: -1}); err == nil {
		t.Error("negative move budget accepted")
	}
	if _, err := New(base, nil, weightProfile(base), Config{Core: cfg}); err == nil {
		t.Error("nil cluster accepted")
	}
	if _, err := New(base, cl, weightProfile(base), Config{Core: cfg, Drift: strata.DriftConfig{Threshold: -1}}); err == nil {
		t.Error("negative threshold accepted")
	}
	stratified := cfg
	stratified.Strategy = core.Stratified
	if _, err := New(base, cl, weightProfile(base), Config{Core: stratified}); err == nil {
		t.Error("the Stratified baseline accepted")
	}
}

// referenceCycle is Loop.Cycle without the count-once shortcut: a lone
// dirty stratum goes through restratify (strata.Cluster at K = 1) and
// tracker.Reset, exactly as two or more dirty strata do. It is the
// oracle TestLoneStratumRefreezeMatchesRecluster holds Cycle to.
func referenceCycle(l *Loop) (*CycleReport, error) {
	dirty := l.tracker.DirtyStrata()
	if len(dirty) != 1 || l.tracker.K() == 1 {
		return l.Cycle()
	}
	rep := &CycleReport{Kind: CycleIncremental, Dirty: dirty}
	if err := l.restratify(dirty); err != nil {
		return nil, err
	}
	if err := l.resize(l.corpus.Len(), rep); err != nil {
		return nil, err
	}
	if err := l.tracker.Reset(l.plan.Strat, dirty); err != nil {
		return nil, err
	}
	if err := l.migrate(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// uniformTopicDocs builds n documents over the given number of topics,
// all documents of a topic identical: every center row freezes with one
// candidate value, so the tracker's scan matrix starts narrower than L.
func uniformTopicDocs(n, topics int) ([]pivots.Doc, int) {
	docs := make([]pivots.Doc, n)
	for i := range docs {
		terms := make([]uint32, 10)
		for k := range terms {
			terms[k] = uint32(100*(i%topics) + k)
		}
		docs[i] = pivots.Doc{Terms: terms}
	}
	return docs, 100 * topics
}

// TestLoneStratumRefreezeMatchesRecluster drives two loops over the same
// seeded drift sequence — Cycle on one, referenceCycle on the other —
// and requires identical strata, sizes, placement, stored bytes and
// tracker state after every cycle. Traffic mixes cycles that drift one
// stratum (again and again), cycles that drift several, and quiet ones.
func TestLoneStratumRefreezeMatchesRecluster(t *testing.T) {
	rcv1, rcv1Vocab := replanDocs(t)
	uniform, uniformVocab := uniformTopicDocs(640, 4)
	scenarios := []struct {
		name    string
		docs    []pivots.Doc
		vocab   int
		maxIter int
		// narrow: every center freezes with one-value rows, so the first
		// top-L refreeze must widen the tracker's scan matrix. kmodesSeed
		// 2 is one that seeds a center in each of the four topics.
		narrow     bool
		kmodesSeed int64
	}{
		{"rcv1", rcv1, rcv1Vocab, 0, false, 7},
		{"rcv1-maxiter2", rcv1, rcv1Vocab, 2, false, 7},
		// MaxIter 1 never updates a center: Cycle must keep the general
		// path, whose K = 1 center is the seed record.
		{"rcv1-maxiter1", rcv1, rcv1Vocab, 1, false, 7},
		{"uniform-narrow-rows", uniform, uniformVocab, 0, true, 2},
	}
	const cycles = 48
	for _, sc := range scenarios {
		for _, seed := range []int64{1, 2, 3} {
			newLoop := func() *Loop {
				base, err := pivots.NewTextCorpus(sc.docs, sc.vocab)
				if err != nil {
					t.Fatal(err)
				}
				cfg := loopCoreConfig(2)
				cfg.Stratifier.Cluster.MaxIter = sc.maxIter
				cfg.Stratifier.Cluster.Seed = sc.kmodesSeed
				l, err := New(base, paperCluster(t, 4), affineProfile(), Config{
					Core:             cfg,
					Drift:            strata.DriftConfig{Threshold: 1e-6},
					MaxMovesPerCycle: 25,
					Store:            partitioner.NewMemoryStore(),
				})
				if err != nil {
					t.Fatal(err)
				}
				return l
			}
			got, want := newLoop(), newLoop()
			for s, c := range got.plan.Strat.Centers {
				if sc.narrow && maxCenterRow(c) != 1 {
					t.Fatalf("%s: stratum %d froze with a %d-value row, want 1", sc.name, s, maxCenterRow(c))
				}
			}
			rng := rand.New(rand.NewSource(seed))
			var lone, several, clean, widened int
			for c := 0; c < cycles; c++ {
				// Per cycle: how many strata the traffic aims at. A target
				// gets copies of one of its base documents with half the
				// terms replaced by terms no document has.
				targets := 1
				switch r := rng.Intn(10); {
				case r == 0:
					targets = 0
				case r >= 5:
					targets = 2 + rng.Intn(2)
				}
				k := want.tracker.K()
				for _, s := range rng.Perm(k)[:targets] {
					var pool []int
					for _, r := range want.plan.Strat.Members[s] {
						if r < len(sc.docs) {
							pool = append(pool, r)
						}
					}
					if len(pool) == 0 {
						continue
					}
					terms := sc.docs[pool[rng.Intn(len(pool))]].Terms
					mixed := make([]uint32, len(terms))
					for i, term := range terms {
						mixed[i] = alienTerm(c*k+s, i)
						if i%2 == 1 {
							mixed[i] = term
						}
					}
					slices.Sort(mixed)
					raw := textRecord(mixed...)
					for m := 5 + rng.Intn(10); m > 0; m-- {
						if sg, sw := ingest(t, got, raw), ingest(t, want, raw); sg != sw {
							t.Fatalf("%s seed %d cycle %d: ingest landed in stratum %d, reference %d", sc.name, seed, c, sg, sw)
						}
					}
				}
				repGot, err := got.Cycle()
				if err != nil {
					t.Fatal(err)
				}
				repWant, err := referenceCycle(want)
				if err != nil {
					t.Fatal(err)
				}
				at := fmt.Sprintf("%s seed %d cycle %d (dirty %v)", sc.name, seed, c, repWant.Dirty)
				if repGot.Kind != repWant.Kind || !reflect.DeepEqual(repGot.Dirty, repWant.Dirty) {
					t.Fatalf("%s: cycle was %v over %v, reference %v", at, repGot.Kind, repGot.Dirty, repWant.Kind)
				}
				switch {
				case len(repWant.Dirty) == 1:
					lone++
					row := maxCenterRow(got.plan.Strat.Centers[repWant.Dirty[0]])
					if sc.maxIter == 1 && row != 1 {
						t.Fatalf("%s: MaxIter 1 refroze to a top-L center", at)
					}
					if row > 1 {
						widened++
					}
				case len(repWant.Dirty) > 1:
					several++
				default:
					clean++
				}
				gs, ws := got.Plan().Strat, want.Plan().Strat
				if !reflect.DeepEqual(gs.Members, ws.Members) {
					t.Fatalf("%s: Members differ", at)
				}
				if !reflect.DeepEqual(gs.Centers, ws.Centers) {
					t.Fatalf("%s: Centers differ", at)
				}
				if !reflect.DeepEqual(gs.Assign, ws.Assign) {
					t.Fatalf("%s: Assign differs", at)
				}
				if !reflect.DeepEqual(gs.WeightTotals, ws.WeightTotals) {
					t.Fatalf("%s: WeightTotals %v, reference %v", at, gs.WeightTotals, ws.WeightTotals)
				}
				if !reflect.DeepEqual(got.Plan().Sizes, want.Plan().Sizes) {
					t.Fatalf("%s: Sizes %v, reference %v", at, got.Plan().Sizes, want.Plan().Sizes)
				}
				if !reflect.DeepEqual(got.Actual(), want.Actual()) {
					t.Fatalf("%s: Actual differs", at)
				}
				gt, wt := got.Tracker(), want.Tracker()
				for s := 0; s < wt.K(); s++ {
					if gt.Drift(s) != wt.Drift(s) {
						t.Fatalf("%s: stratum %d drift %v, reference %v", at, s, gt.Drift(s), wt.Drift(s))
					}
				}
				if !reflect.DeepEqual(gt.DirtyStrata(), wt.DirtyStrata()) {
					t.Fatalf("%s: DirtyStrata %v, reference %v", at, gt.DirtyStrata(), wt.DirtyStrata())
				}
				if !reflect.DeepEqual(gt, wt) {
					t.Fatalf("%s: tracker internals differ", at)
				}
			}
			if lone < 10 || several < 3 || clean < 1 || (sc.narrow && widened == 0) {
				t.Errorf("%s seed %d: %d lone (%d to a wider row), %d multi-stratum, %d clean cycles — the sequence exercised too little",
					sc.name, seed, lone, widened, several, clean)
			}
			for j := 0; j < got.Store().p; j++ {
				g, err := got.Store().ReadPartition(j)
				if err != nil {
					t.Fatal(err)
				}
				w, err := want.Store().ReadPartition(j)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(g, w) {
					t.Errorf("%s seed %d: stored partition %d differs", sc.name, seed, j)
				}
			}
		}
	}
}

// maxCenterRow is the longest candidate row of one center.
func maxCenterRow(c strata.Center) int {
	l := 0
	for _, row := range c.Values {
		l = max(l, len(row))
	}
	return l
}
