package distrib

import (
	"errors"
	"testing"

	"pareto/internal/strata"
	"pareto/internal/telemetry"
)

// TestDistributedStatsAndTelemetry: a successful distributed run must
// populate Stratification.Stats (so the plan-summary audit fields are
// consistent with the local path) and record protocol metrics.
func TestDistributedStatsAndTelemetry(t *testing.T) {
	corpus := testCorpus(t, 0.0006)
	master, workers := startStore(t, 3)
	reg := telemetry.NewRegistry()
	dist, report, err := StratifyDetailed(master, workers, corpus, Options{
		SketchWidth: 24,
		Cluster:     strata.Config{K: 6, L: 3, Seed: 11},
		Seed:        5,
		Telemetry:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if errors.Join(report.WorkerErrs...) != nil {
		t.Fatalf("worker failures: %v", report.WorkerErrs)
	}
	if dist.Stats.SketchTime <= 0 {
		t.Errorf("sketch time = %v, want > 0", dist.Stats.SketchTime)
	}
	if dist.Stats.ClusterTime <= 0 {
		t.Errorf("cluster time = %v, want > 0", dist.Stats.ClusterTime)
	}
	if dist.Stats.Iterations == 0 {
		t.Error("iterations = 0 on the distributed path")
	}
	snap := reg.Snapshot()
	// Ship bytes: the whole corpus's sketch records crossed the wire.
	wantBytes := int64(corpus.Len()) * (4 + 8*24)
	if got := snap.Counters["distrib_ship_bytes_total"]; got != wantBytes {
		t.Errorf("ship bytes = %d, want %d", got, wantBytes)
	}
	if got := snap.Counters["distrib_barrier_timeouts_total"]; got != 0 {
		t.Errorf("aborts = %d on a clean run", got)
	}
	if got := snap.Histograms["distrib_barrier_wait_ns"].Count; got != 1 {
		t.Errorf("barrier wait observations = %d, want 1", got)
	}
	if got := snap.Counters["distrib_ship_retries_total"]; got != 0 {
		t.Errorf("ship retries = %d on a clean run", got)
	}
}
