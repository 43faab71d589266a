package replan

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"pareto/internal/partitioner"
	"pareto/internal/pivots"
	"pareto/internal/strata"
)

// refRetarget is retarget as a copy: the committed lists copied, pending
// records appended to deficit partitions, the copy rebalanced.
func refRetarget(actual *partitioner.Assignment, pending, sizes []int) (*partitioner.Assignment, error) {
	extended := &partitioner.Assignment{Parts: make([][]int, actual.P())}
	for j, part := range actual.Parts {
		extended.Parts[j] = append([]int(nil), part...)
	}
	j := 0
	for _, r := range pending {
		for j < len(sizes) && len(extended.Parts[j]) >= sizes[j] {
			j++
		}
		if j == len(sizes) {
			return nil, fmt.Errorf("no deficit partition for pending record %d", r)
		}
		extended.Parts[j] = append(extended.Parts[j], r)
	}
	out, _, err := partitioner.Rebalance(extended, sizes)
	return out, err
}

// refDiffMoves is diffMoves over an n-int index of the committed
// placement, rebuilt from the assignment.
func refDiffMoves(actual, target *partitioner.Assignment, n int) (placements, moves []partitioner.Move) {
	cur := make([]int, n)
	for i := range cur {
		cur[i] = -1
	}
	for j, part := range actual.Parts {
		for _, r := range part {
			cur[r] = j
		}
	}
	for j, part := range target.Parts {
		for _, r := range part {
			switch c := cur[r]; {
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

// refApplyOps rebuilds every affected partition: survivors in order,
// then arrivals in op order. Returns the affected partitions.
func refApplyOps(actual *partitioner.Assignment, ops []partitioner.Move) (*partitioner.Assignment, map[int]bool) {
	affected := make(map[int]bool)
	leaving := make(map[int]map[int]bool)
	arriving := make(map[int][]int)
	for _, mv := range ops {
		affected[mv.To] = true
		arriving[mv.To] = append(arriving[mv.To], mv.Record)
		if mv.From >= 0 {
			affected[mv.From] = true
			if leaving[mv.From] == nil {
				leaving[mv.From] = make(map[int]bool)
			}
			leaving[mv.From][mv.Record] = true
		}
	}
	next := &partitioner.Assignment{Parts: make([][]int, actual.P())}
	for j, part := range actual.Parts {
		if !affected[j] {
			next.Parts[j] = part
			continue
		}
		var out []int
		for _, r := range part {
			if !leaving[j][r] {
				out = append(out, r)
			}
		}
		next.Parts[j] = append(out, arriving[j]...)
	}
	return next, affected
}

// cloneParts deep-copies an assignment's partitions.
func cloneParts(a *partitioner.Assignment) [][]int {
	out := make([][]int, a.P())
	for j, part := range a.Parts {
		out[j] = append([]int(nil), part...)
	}
	return out
}

// sameParts compares partitions by content (a nil and an empty
// partition are the same).
func sameParts(a, b [][]int) bool {
	return slices.EqualFunc(a, b, func(x, y []int) bool { return slices.Equal(x, y) })
}

// sameRecords compares record lists by content.
func sameRecords(a, b [][]byte) bool {
	return slices.EqualFunc(a, b, func(x, y []byte) bool { return bytes.Equal(x, y) })
}

// handedOut is a slice the loop returned, with a copy taken then.
type handedOut struct {
	what string
	a    *partitioner.Assignment
	was  [][]int
}

// TestBookkeepingMatchesCopyReference runs the loop against a model
// that does the migration bookkeeping the copying way (refRetarget,
// refDiffMoves, refApplyOps) over seeded traffic: batches of 0–300
// records aimed at one, several or every stratum (clean, incremental
// and full cycles), move budgets 0, 1 and 37, and a store that tears
// one stage in ten. After every cycle the live placement, the plan's
// and the loop's targets, the report's counts, what the cycle shipped
// and every stored partition must match the model, and every
// assignment the loop handed out before must still read as it did.
func TestBookkeepingMatchesCopyReference(t *testing.T) {
	docs, vocab := replanDocs(t)
	const cycles = 40
	var kinds [3]int
	aborts, deferred := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		budget := []int{0, 1, 37}[seed%3]
		cfg := loopCoreConfig(2)
		if seed%2 == 0 {
			cfg.Scheme = partitioner.SimilarTogether
		}
		base, err := pivots.NewTextCorpus(docs[:400], vocab)
		if err != nil {
			t.Fatal(err)
		}
		// Sizes follow record weight, so drift moves records.
		var live pivots.Corpus = base
		profile := func(indices []int) (float64, error) {
			cost := 0.0
			for _, i := range indices {
				cost += 2000 * float64(live.Weight(i))
			}
			return cost, nil
		}
		store := newRecordingStore()
		l, err := New(base, paperCluster(t, 4), profile, Config{
			Core:             cfg,
			Drift:            strata.DriftConfig{Threshold: 0.01},
			MaxMovesPerCycle: budget,
			Store:            store,
		})
		if err != nil {
			t.Fatal(err)
		}
		live = l.Corpus()
		actual := &partitioner.Assignment{Parts: cloneParts(l.Actual())}
		target := &partitioner.Assignment{Parts: cloneParts(l.target)}
		plan := cloneParts(l.Plan().Assign)
		targetN := l.Len()
		var pending []int
		var held []handedOut
		rng := rand.New(rand.NewSource(seed))
		for c := 0; c < cycles; c++ {
			at := fmt.Sprintf("seed %d (budget %d) cycle %d", seed, budget, c)
			// Traffic: nothing, copies of base documents, or documents
			// with half their terms replaced, aimed at some strata or all.
			k := l.Tracker().K()
			aim := rng.Perm(k)[:1+rng.Intn(3)]
			alien := true
			switch r := rng.Intn(10); {
			case r < 3:
				alien = false
			case r >= 6:
				aim = rng.Perm(k)
			}
			for batch := rng.Intn(301); batch > 0; batch-- {
				s := aim[batch%len(aim)]
				var pool []int
				for _, r := range l.Plan().Strat.Members[s] {
					if r < base.Len() {
						pool = append(pool, r)
					}
				}
				if len(pool) == 0 {
					continue
				}
				terms := slices.Clone(docs[pool[rng.Intn(len(pool))]].Terms)
				for i := range terms {
					if alien && i%2 == 1 {
						terms[i] = alienTerm(c*k+s, i)
					}
				}
				slices.Sort(terms)
				ingest(t, l, textRecord(terms...))
				pending = append(pending, l.Len()-1)
			}
			n := l.Len()
			kind := CycleClean
			var sizes []int
			switch dirty := len(l.Tracker().DirtyStrata()); {
			case dirty == l.k:
				kind = CycleFull
			case dirty > 0:
				kind = CycleIncremental
			case targetN != n:
				sizes = l.sizesFor(n)
			}
			segs := make([][]segment, l.p)
			for j := range segs {
				segs[j] = append([]segment(nil), l.Store().parts[j].segs...)
			}
			held = append(held,
				handedOut{fmt.Sprintf("Actual() before cycle %d", c), l.Actual(), cloneParts(l.Actual())},
				handedOut{fmt.Sprintf("Plan().Assign before cycle %d", c), l.Plan().Assign, cloneParts(l.Plan().Assign)})

			store.tear = rng.Intn(10) == 0
			rep, cycleErr := l.Cycle()
			store.tear = false
			if cycleErr != nil && !errors.Is(cycleErr, errTorn) {
				t.Fatalf("%s: %v", at, cycleErr)
			}

			// The model installs the target the loop's planning chose.
			switch kind {
			case CycleFull:
				target = &partitioner.Assignment{Parts: cloneParts(l.Plan().Assign)}
				plan, targetN = target.Parts, n
			case CycleIncremental:
				sizes = l.Plan().Sizes
				fallthrough
			default:
				if sizes != nil {
					if target, err = refRetarget(actual, pending, sizes); err != nil {
						t.Fatalf("%s: reference retarget: %v", at, err)
					}
					targetN = n
					if kind == CycleIncremental {
						plan = target.Parts
					}
				}
			}
			placements, moves := refDiffMoves(actual, target, n)
			applied := moves
			if budget > 0 && len(moves) > budget {
				applied = moves[:budget]
			}
			ops := append(append([]partitioner.Move(nil), placements...), applied...)
			if cycleErr != nil {
				aborts++
			} else {
				kinds[kind]++
				deferred += rep.MovesDeferred
				if rep.Kind != kind || rep.Placements != len(placements) || rep.MovesApplied != len(applied) ||
					rep.MovesDeferred != len(moves)-len(applied) {
					t.Fatalf("%s: %v cycle placed %d, moved %d (+%d deferred); reference %v, %d, %d (+%d)", at,
						rep.Kind, rep.Placements, rep.MovesApplied, rep.MovesDeferred,
						kind, len(placements), len(applied), len(moves)-len(applied))
				}
				records, size := 0, 0
				if len(ops) > 0 {
					next, affected := refApplyOps(actual, ops)
					for j := range affected {
						old, part := actual.Parts[j], next.Parts[j]
						common := 0
						for common < len(old) && common < len(part) && old[common] == part[common] {
							common++
						}
						keep, _ := suffixStart(segs[j], common, len(part))
						records += len(part) - keep
						for _, r := range part[keep:] {
							size += l.Corpus().RecordSize(r)
						}
					}
					actual = next
				}
				if rep.RecordsShipped != records || rep.BytesShipped != size {
					t.Fatalf("%s: shipped %d records, %d bytes; reference %d, %d", at, rep.RecordsShipped, rep.BytesShipped, records, size)
				}
				pending = nil
			}

			if !sameParts(l.Actual().Parts, actual.Parts) {
				t.Fatalf("%s: Actual() differs from the reference", at)
			}
			if !sameParts(l.target.Parts, target.Parts) {
				t.Fatalf("%s: target differs from the reference", at)
			}
			if !sameParts(l.Plan().Assign.Parts, plan) {
				t.Fatalf("%s: Plan().Assign differs from the reference", at)
			}
			for j := 0; j < l.p; j++ {
				got, err := l.Store().ReadPartition(j)
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				if !sameRecords(got, partitioner.EncodeRecords(l.Corpus(), actual.Parts[j])) {
					t.Fatalf("%s: stored partition %d differs from the reference placement", at, j)
				}
			}
			for _, h := range held {
				if !sameParts(h.a.Parts, h.was) {
					t.Fatalf("%s: %s changed after it was handed out", at, h.what)
				}
			}
		}
	}
	t.Logf("cycles: %d clean, %d incremental, %d full, %d aborted; %d moves deferred", kinds[CycleClean], kinds[CycleIncremental], kinds[CycleFull], aborts, deferred)
	if kinds[CycleClean] < 40 || kinds[CycleIncremental] < 100 || kinds[CycleFull] < 20 || aborts < 20 || deferred == 0 {
		t.Errorf("the traffic exercised too little: %v cycles by kind, %d aborted, %d moves deferred", kinds, aborts, deferred)
	}
}

// TestAppendOnlyCycleCostsItsBatch is the allocation bound: a clean
// cycle that places 100 records allocates about the same over 40k base
// records as over 10k. Copying the assignment, or indexing every
// record, makes it grow with the corpus.
func TestAppendOnlyCycleCostsItsBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("plans two corpora of 10k and 40k records")
	}
	cost := func(n int) uint64 {
		l, err := New(benchCorpus(t, n), paperCluster(t, 4), affineProfile(), Config{
			Core:  benchCoreConfig(),
			Drift: strata.DriftConfig{Threshold: 0.9}, // nothing drifts this far
		})
		if err != nil {
			t.Fatal(err)
		}
		// The second cycle is measured: the first one hands the next its
		// target's slices, which have to stay extendable.
		for gen := 1; gen <= 2; gen++ {
			benchIngest(t, l, gen)
			if gen == 1 {
				if _, err := l.Cycle(); err != nil {
					t.Fatal(err)
				}
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := l.Cycle()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Kind != CycleClean || rep.Placements != benchBatch || rep.MovesApplied+rep.MovesDeferred != 0 {
			t.Fatalf("n=%d: %v cycle placed %d and moved %d: not append-only", n, rep.Kind, rep.Placements, rep.MovesApplied+rep.MovesDeferred)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := cost(10_000), cost(40_000)
	t.Logf("one clean 100-record cycle allocates %d B over 10k records, %d B over 40k", small, large)
	if 4*large > 5*small {
		t.Errorf("the 40k cycle allocates %d B, more than 1.25× the 10k cycle's %d B", large, small)
	}
}
