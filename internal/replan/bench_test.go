package replan

import (
	"fmt"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"pareto/internal/core"
	"pareto/internal/partitioner"
	"pareto/internal/pivots"
	"pareto/internal/strata"
)

const (
	benchRecords = 50_000
	benchTopics  = 32
	benchWindow  = 64  // per-topic vocabulary window
	benchTerms   = 12  // terms per document
	benchBatch   = 100 // records ingested between cycles
)

// benchCorpus builds a deterministic topic-blocked text corpus: doc i
// belongs to topic i%benchTopics and draws benchTerms terms from a
// sliding window inside that topic's vocabulary block, so k-modes
// recovers the topics as strata and a batch of identical alien records
// dirties exactly one of them.
func benchCorpus(b testing.TB, n int) *pivots.TextCorpus {
	b.Helper()
	docs := make([]pivots.Doc, n)
	for i := range docs {
		topic := i % benchTopics
		terms := make([]uint32, benchTerms)
		for k := range terms {
			terms[k] = uint32(topic*benchWindow + (i/benchTopics+k)%benchWindow)
		}
		sort.Slice(terms, func(a, c int) bool { return terms[a] < terms[c] })
		docs[i] = pivots.Doc{Terms: terms}
	}
	c, err := pivots.NewTextCorpus(docs, benchTopics*benchWindow)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func benchCoreConfig() core.Config {
	return core.Config{
		Strategy: core.HetEnergyAware,
		Alpha:    0.999,
		Scheme:   partitioner.Representative,
		Stratifier: strata.StratifierConfig{
			SketchWidth: 24,
			Cluster:     strata.Config{K: benchTopics, L: 3, Seed: 7},
			Seed:        5,
		},
		SampleSeed: 3,
	}
}

func benchLoop(b testing.TB, threshold float64, store partitioner.Store) *Loop {
	b.Helper()
	base := benchCorpus(b, benchRecords)
	l, err := New(base, paperCluster(b, 4), affineProfile(), Config{
		Core:  benchCoreConfig(),
		Drift: strata.DriftConfig{Threshold: threshold},
		Store: store,
	})
	if err != nil {
		b.Fatal(err)
	}
	return l
}

// benchIngest appends one batch of identical alien records — all land
// in the same stratum, so well under 10% of the strata drift.
func benchIngest(b testing.TB, l *Loop, gen int) {
	b.Helper()
	raw := alienRecord(gen, 6)
	for i := 0; i < benchBatch; i++ {
		ingest(b, l, raw)
	}
}

// benchIncrementalThreshold: a 100-record batch against a ~19k-weight
// stratum dilutes coverage by ~1.6e-4, so this threshold trips on the
// drifted stratum only.
const benchIncrementalThreshold = 5e-5

// benchCycle runs one cycle, which must take the given path.
func benchCycle(b testing.TB, l *Loop, want CycleKind) *CycleReport {
	b.Helper()
	rep, err := l.Cycle()
	if err != nil {
		b.Fatal(err)
	}
	if rep.Kind != want {
		b.Fatalf("cycle kind %v, want %v", rep.Kind, want)
	}
	if want == CycleIncremental && 10*len(rep.Dirty) >= l.Tracker().K() {
		b.Fatalf("%d/%d strata dirty, want <10%%", len(rep.Dirty), l.Tracker().K())
	}
	return rep
}

// benchCycles times b.N cycles of the given kind; the batch each one
// reacts to is ingested outside the timer. A loop with a store also
// reports the bytes a cycle handed it (shipped_B/op; a batch is 5,200).
func benchCycles(b *testing.B, l *Loop, want CycleKind) {
	shipped := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		benchIngest(b, l, i+1)
		b.StartTimer()
		shipped += benchCycle(b, l, want).BytesShipped
	}
	if l.Store() != nil {
		b.ReportMetric(float64(shipped)/float64(b.N), "shipped_B/op")
	}
}

// BenchmarkReplanIncremental measures one drift-driven incremental
// cycle at 50k records with <10% of strata dirty: the lone drifted
// stratum refreezes from the tracker's counters, the sample ladder is
// re-profiled at the grown corpus size, and the sizing LP is solved
// cold. Ingest happens outside the timer.
func BenchmarkReplanIncremental(b *testing.B) {
	benchCycles(b, benchLoop(b, benchIncrementalThreshold, nil), CycleIncremental)
}

// BenchmarkReplanIncrementalStore is the same cycle migrating through a
// MemoryStore, so the write half — encoding the changed suffix of every
// affected partition and staging it through the epoch store — has a row
// too.
func BenchmarkReplanIncrementalStore(b *testing.B) {
	benchCycles(b, benchLoop(b, benchIncrementalThreshold, partitioner.NewMemoryStore()), CycleIncremental)
}

// BenchmarkReplanFull is the baseline the incremental path is measured
// against: the same drift pattern, but with Threshold 0 every stratum
// is always dirty, so each cycle is a cold full core.BuildPlan over
// the whole corpus.
func BenchmarkReplanFull(b *testing.B) {
	benchCycles(b, benchLoop(b, 0, nil), CycleFull)
}

// TestIncrementalSpeedupFloor enforces the acceptance floor the
// benchmarks above document: at 50k records with one of 32 strata
// drifting, an incremental cycle is at least 5× cheaper than a full
// replan. It is a timing assertion, so it only runs when explicitly
// requested via PARETO_REPLAN_SPEEDUP_CHECK=1 (the CI bench-smoke job
// sets it); plain `go test ./...` must never flake on scheduler noise.
func TestIncrementalSpeedupFloor(t *testing.T) {
	if os.Getenv("PARETO_REPLAN_SPEEDUP_CHECK") == "" {
		t.Skip("set PARETO_REPLAN_SPEEDUP_CHECK=1 to enforce the incremental-vs-full floor")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	const floor, rounds = 5.0, 4
	incr := benchLoop(t, benchIncrementalThreshold, nil)
	full := benchLoop(t, 0, nil)
	// Interleave the two loops and keep each one's best cycle, so a
	// transient noisy-neighbor episode cannot penalize one side only.
	best := map[CycleKind]time.Duration{CycleIncremental: math.MaxInt64, CycleFull: math.MaxInt64}
	for i := 1; i <= rounds; i++ {
		for _, side := range []struct {
			l    *Loop
			kind CycleKind
		}{{incr, CycleIncremental}, {full, CycleFull}} {
			benchIngest(t, side.l, i)
			t0 := time.Now()
			benchCycle(t, side.l, side.kind)
			if d := time.Since(t0); d < best[side.kind] {
				best[side.kind] = d
			}
		}
	}
	ratio := float64(best[CycleFull]) / float64(best[CycleIncremental])
	msg := fmt.Sprintf("incremental %v, full %v: %.1f× (floor %.0f×)", best[CycleIncremental], best[CycleFull], ratio, floor)
	t.Log(msg)
	if ratio < floor {
		t.Errorf("incremental cycle under the speedup floor: %s", msg)
	}
}
