package replan

import (
	"errors"
	"reflect"
	"testing"

	"pareto/internal/partitioner"
	"pareto/internal/pivots"
	"pareto/internal/strata"
	"pareto/internal/telemetry"
)

// TestAppendOnlyCyclesShipWhatChanged is the shipping bound, in counts:
// 64 cycles that each place 100 new records and move nothing hand the
// base store at most 8× the bytes ingested (the logarithmic method's
// simulated figure for 64 equal appends is 4.4×; whole-partition
// rewrites would be ~200×), with every partition byte-equal to a full
// re-encoding of the live placement after every cycle and the base
// never holding more than two copies of it. Then the zero-drift case: a
// cycle with nothing pending and nothing to move makes no base-store
// call at all.
func TestAppendOnlyCyclesShipWhatChanged(t *testing.T) {
	const cycles = 64
	base := newRecordingStore()
	reg := telemetry.NewRegistry()
	// 16k records: no partition's appended tail reaches half its base
	// segment, so the bound is about the appends alone.
	l, err := New(benchCorpus(t, 16_000), paperCluster(t, 4), affineProfile(), Config{
		Core:      benchCoreConfig(),
		Drift:     strata.DriftConfig{Threshold: benchIncrementalThreshold},
		Store:     base,
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := l.Store().p
	placedBytes, _ := base.live(-1, p)
	placedHanded := base.handed
	ingested, shipped, shippedRecords := 0, 0, 0
	for c := 1; c <= cycles; c++ {
		n := l.Len()
		benchIngest(t, l, c)
		for i := n; i < l.Len(); i++ {
			ingested += l.Corpus().RecordSize(i)
		}
		rep, err := l.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Placements != benchBatch || rep.MovesApplied != 0 || rep.MovesDeferred != 0 {
			t.Fatalf("cycle %d placed %d and moved %d (+%d deferred): not append-only", c, rep.Placements, rep.MovesApplied, rep.MovesDeferred)
		}
		if rep.RecordsShipped < benchBatch {
			t.Fatalf("cycle %d shipped %d records, placed %d", c, rep.RecordsShipped, rep.Placements)
		}
		shipped += rep.BytesShipped
		shippedRecords += rep.RecordsShipped
		committed := 0
		for j := 0; j < p; j++ {
			got, err := l.Store().ReadPartition(j)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, partitioner.RecordsOf(l.Corpus(), l.Actual(), j)) {
				t.Fatalf("cycle %d: stored partition %d differs from the live placement re-encoded", c, j)
			}
			committed += size(got)
			assertSegments(t, l.Store(), j, len(l.Actual().Parts[j]))
		}
		if live, _ := base.live(-1, p); live > 2*committed {
			t.Fatalf("cycle %d: the base holds %d bytes, the placement is %d", c, live, committed)
		}
	}
	if shipped > 8*ingested {
		t.Errorf("%d append-only cycles shipped %d bytes for %d ingested (%.1f×), want ≤ 8×", cycles, shipped, ingested, float64(shipped)/float64(ingested))
	}
	t.Logf("shipped %d bytes for %d ingested: %.2f× (initial placement %d bytes)", shipped, ingested, float64(shipped)/float64(ingested), placedBytes)
	// What the reports say is what the base was handed.
	if written := base.handed - placedHanded; written != shipped {
		t.Errorf("cycle reports add up to %d bytes shipped, the base store was handed %d", shipped, written)
	}
	if got := reg.Counter("replan_shipped_bytes_total").Value(); got != int64(shipped) {
		t.Errorf("replan_shipped_bytes_total = %d, reports add up to %d", got, shipped)
	}
	if got := reg.Counter("replan_shipped_records_total").Value(); got != int64(shippedRecords) {
		t.Errorf("replan_shipped_records_total = %d, reports add up to %d", got, shippedRecords)
	}

	calls := base.calls()
	rep, err := l.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != CycleClean || rep.Placements != 0 || rep.MovesApplied != 0 {
		t.Fatalf("idle cycle: %+v", rep)
	}
	if rep.RecordsShipped != 0 || rep.BytesShipped != 0 {
		t.Errorf("idle cycle reports %d records, %d bytes shipped", rep.RecordsShipped, rep.BytesShipped)
	}
	if got := base.calls(); got != calls {
		t.Errorf("idle cycle made %d base-store calls, want 0", got-calls)
	}
}

// TestTornSuffixStageKeepsPreviousContents tears the stage of a cycle
// that ships suffixes: once the partitions are several segments long,
// one suffix write half-lands and fails. The cycle aborts with the live
// placement, the pending queue and every partition's bytes as they
// were, and the next cycle ships the same suffixes and converges.
func TestTornSuffixStageKeepsPreviousContents(t *testing.T) {
	docs, vocab := replanDocs(t)
	corpus, err := pivots.NewTextCorpus(docs, vocab)
	if err != nil {
		t.Fatal(err)
	}
	base := newRecordingStore()
	l, err := New(corpus, paperCluster(t, 4), affineProfile(), Config{
		Core:  loopCoreConfig(2),
		Drift: strata.DriftConfig{Threshold: 0.9}, // clean cycles: placements only
		Store: base,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := l.Store().p
	ingest := func(gen int) {
		for i := 0; i < 40; i++ {
			if _, err := l.Ingest(alienItems(gen, 6), 6, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	for c := 1; c <= 5; c++ {
		ingest(c)
		if _, err := l.Cycle(); err != nil {
			t.Fatal(err)
		}
	}
	segments := 0
	before := make([][][]byte, p)
	for j := range before {
		segments += len(l.Store().parts[j].segs)
		if before[j], err = l.Store().ReadPartition(j); err != nil {
			t.Fatal(err)
		}
	}
	if segments <= p {
		t.Fatalf("%d segments over %d partitions: the cycles never appended one", segments, p)
	}
	actualBefore := l.Actual()

	ingest(6)
	base.tear = true
	if _, err := l.Cycle(); !errors.Is(err, errTorn) {
		t.Fatalf("cycle over a torn stage returned %v", err)
	}
	if l.Actual() != actualBefore || l.Pending() != 40 {
		t.Errorf("aborted cycle changed the live placement or drained pending (%d)", l.Pending())
	}
	for j := range before {
		got, err := l.Store().ReadPartition(j)
		if err != nil {
			t.Fatalf("post-abort read %d: %v", j, err)
		}
		if !reflect.DeepEqual(got, before[j]) {
			t.Fatalf("partition %d changed across the aborted cycle", j)
		}
	}
	rep, err := l.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged || l.Pending() != 0 || rep.Placements != 40 {
		t.Fatalf("recovery cycle: %+v, pending %d", rep, l.Pending())
	}
	for j := 0; j < p; j++ {
		got, err := l.Store().ReadPartition(j)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, partitioner.RecordsOf(l.Corpus(), l.Actual(), j)) {
			t.Fatalf("stored partition %d differs from the live placement re-encoded", j)
		}
		assertSegments(t, l.Store(), j, len(l.Actual().Parts[j]))
	}
}
