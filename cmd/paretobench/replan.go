package main

import (
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"pareto/internal/cluster"
	"pareto/internal/core"
	"pareto/internal/energy"
	"pareto/internal/partitioner"
	"pareto/internal/pivots"
	"pareto/internal/replan"
	"pareto/internal/strata"
	"pareto/internal/telemetry"
)

// The -replan loop's fixed set-up: replanTopics planted topics (=
// strata) on replanNodes paper-shaped nodes, replanBatch records
// ingested per round, a per-stratum drift threshold of replanThreshold
// and at most replanBudget migration moves per cycle.
const (
	replanTopics    = 32
	replanNodes     = 4
	replanBatch     = 100
	replanThreshold = 5e-5
	replanBudget    = 2000
)

// replanCorpus builds the deterministic topic-blocked text corpus the
// driver drifts against: doc i belongs to topic i%topics and draws 12
// terms from a sliding window in that topic's vocabulary block, so
// k-modes recovers the topics as strata.
func replanCorpus(n, topics int) (*pivots.TextCorpus, error) {
	const window, terms = 64, 12
	docs := make([]pivots.Doc, n)
	for i := range docs {
		topic := i % topics
		t := make([]uint32, terms)
		for k := range t {
			t[k] = uint32(topic*window + (i/topics+k)%window)
		}
		sort.Slice(t, func(a, b int) bool { return t[a] < t[b] })
		docs[i] = pivots.Doc{Terms: t}
	}
	return pivots.NewTextCorpus(docs, topics*window)
}

// driftRecord builds a text wire record whose six terms lie above every
// planted topic's vocabulary block; identical records land in one
// stratum and drift only it.
func driftRecord(gen int) []byte {
	terms := make([]uint32, 6)
	for i := range terms {
		terms[i] = 1<<30 + uint32(gen)<<8 + uint32(i)
	}
	docs := []pivots.Doc{{Terms: terms}}
	return (&pivots.TextCorpus{Docs: docs}).AppendRecord(nil, 0)
}

// runReplan drives the incremental replanning loop: a seeded corpus of
// records is planned cold, then cycles rounds each ingest a drifting batch
// and run one Cycle, printing what the loop decided (clean, incremental
// re-stratification, or full replan) and what it cost. A final cold
// core.BuildPlan over the drifted corpus anchors the incremental cycle
// times against the full-replan baseline.
func runReplan(records, cycles int) error {
	base, err := replanCorpus(records, replanTopics)
	if err != nil {
		return err
	}
	cl, err := cluster.PaperCluster(replanNodes, energy.DefaultPanel(), 172, 48)
	if err != nil {
		return err
	}
	profile := func(indices []int) (float64, error) {
		return 50_000 + 2_000*float64(len(indices)), nil
	}
	cfg := core.Config{
		Strategy: core.HetEnergyAware,
		Alpha:    0.999,
		Scheme:   partitioner.Representative,
		Stratifier: strata.StratifierConfig{
			SketchWidth: 24,
			Cluster:     strata.Config{K: replanTopics, L: 3, Seed: 7},
			Seed:        5,
		},
		SampleSeed: 3,
	}
	reg := telemetry.NewRegistry()
	start := time.Now()
	l, err := replan.New(base, cl, profile, replan.Config{
		Core:             cfg,
		Drift:            strata.DriftConfig{Threshold: replanThreshold},
		MaxMovesPerCycle: replanBudget,
		Store:            partitioner.NewMemoryStore(),
		Telemetry:        reg,
	})
	if err != nil {
		return err
	}
	coldPlan := time.Since(start)
	fmt.Printf("corpus %d records, %d topics, cluster of %d nodes; cold plan + initial placement %v\n\n",
		records, replanTopics, replanNodes, coldPlan.Round(time.Millisecond))

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "cycle\tkind\tdirty\tprofile runs\tplaced\tmoved\tdeferred\tshipped\telapsed")
	var incTotal time.Duration
	var incCycles int
	// ingested and shipped are bytes: what the rounds added to the corpus
	// and what their cycles handed the store.
	var ingested, shipped int
	for c := 1; c <= cycles; c++ {
		for i := 0; i < replanBatch; i++ {
			if _, err := l.Ingest(driftRecord(c)); err != nil {
				return err
			}
			ingested += l.Corpus().RecordSize(l.Len() - 1)
		}
		rep, err := l.Cycle()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%s\t%d/%d\t%d\t%d\t%d\t%d\t%d rec %d B\t%v\n",
			c, rep.Kind, len(rep.Dirty), l.Tracker().K(),
			rep.ProfileRuns, rep.Placements,
			rep.MovesApplied, rep.MovesDeferred,
			rep.RecordsShipped, rep.BytesShipped, rep.Elapsed.Round(time.Microsecond))
		shipped += rep.BytesShipped
		if rep.Kind == replan.CycleIncremental {
			incTotal += rep.Elapsed
			incCycles++
		}
	}
	w.Flush()

	// Drain any moves the budget deferred.
	for drained := 0; ; drained++ {
		if drained > 1000 {
			return fmt.Errorf("migration did not converge after %d drain cycles", drained)
		}
		rep, err := l.Cycle()
		if err != nil {
			return err
		}
		if rep.Converged && l.Pending() == 0 {
			break
		}
	}

	start = time.Now()
	if _, err := core.BuildPlan(l.Corpus(), cl, profile, cfg); err != nil {
		return err
	}
	fullReplan := time.Since(start)
	fmt.Printf("\nfull cold replan over final corpus (%d records): %v\n", l.Len(), fullReplan.Round(time.Millisecond))
	if incCycles > 0 {
		mean := incTotal / time.Duration(incCycles)
		fmt.Printf("mean incremental cycle: %v  (%.1fx faster than full replan)\n",
			mean.Round(time.Microsecond), float64(fullReplan)/float64(mean))
	}
	if ingested > 0 {
		fmt.Printf("shipped %d B to the store for %d B ingested over the %d rounds: %.2fx\n",
			shipped, ingested, cycles, float64(shipped)/float64(ingested))
	}
	snap := reg.Snapshot()
	fmt.Printf("telemetry: cycles=%d incremental=%d full=%d clean=%d moves_applied=%d moves_deferred=%d shipped_records=%d shipped_bytes=%d aborts=%d\n",
		snap.Counters["replan_cycles_total"],
		snap.Counters["replan_cycles_incremental_total"],
		snap.Counters["replan_cycles_full_total"],
		snap.Counters["replan_cycles_clean_total"],
		snap.Counters["replan_moves_applied_total"],
		snap.Counters["replan_moves_deferred_total"],
		snap.Counters["replan_shipped_records_total"],
		snap.Counters["replan_shipped_bytes_total"],
		snap.Counters["replan_migration_aborts_total"])
	return nil
}
