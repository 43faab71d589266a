package bench

import (
	"fmt"
	"math"
	"testing"

	"pareto/internal/cluster"
	"pareto/internal/core"
	"pareto/internal/datasets"
	"pareto/internal/energy"
	"pareto/internal/partitioner"
	"pareto/internal/pivots"
	"pareto/internal/sampling"
	"pareto/internal/telemetry"
)

func tinyCluster(t *testing.T, p int) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.PaperCluster(p, energy.DefaultPanel(), 172, 24)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// evenAssignment splits n records round-robin into p partitions.
func evenAssignment(n, p int) *partitioner.Assignment {
	parts := make([][]int, p)
	for i := 0; i < n; i++ {
		parts[i%p] = append(parts[i%p], i)
	}
	return &partitioner.Assignment{Parts: parts}
}

func TestTextMiningAdapter(t *testing.T) {
	cfg := datasets.RCV1Like(0.0003)
	docs, _, err := datasets.GenerateText(cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := pivots.NewTextCorpus(docs, cfg.VocabSize)
	if err != nil {
		t.Fatal(err)
	}
	w := &TextMining{Docs: corpus, SupportFrac: 0.2, MaxLen: 2}
	if w.Name() == "" || w.Corpus() != corpus || w.Scheme() != partitioner.Representative {
		t.Error("adapter metadata wrong")
	}
	cost, err := w.Profile([]int{0, 1, 2, 3, 4})
	if err != nil || cost <= 0 {
		t.Fatalf("profile cost %v, %v", cost, err)
	}
	cl := tinyCluster(t, 2)
	res, quality, err := w.Run(cl, evenAssignment(corpus.Len(), 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Error("zero makespan")
	}
	if quality["candidates"] < quality["frequent"] {
		t.Error("candidates below final frequent count")
	}
	if quality["false-positives"] != quality["candidates"]-quality["frequent"] {
		t.Error("false-positive bookkeeping wrong")
	}
}

func TestTreeMiningAdapter(t *testing.T) {
	trees, _, err := datasets.GenerateTrees(datasets.SwissProtLike(0.0005))
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := pivots.NewTreeCorpus(trees)
	if err != nil {
		t.Fatal(err)
	}
	w := &TreeMining{Trees: corpus, SupportFrac: 0.4, MaxNodes: 3}
	if w.Scheme() != partitioner.Representative {
		t.Error("tree mining must want representative placement")
	}
	cost, err := w.Profile([]int{0, 1, 2})
	if err != nil || cost <= 0 {
		t.Fatalf("profile cost %v, %v", cost, err)
	}
	cl := tinyCluster(t, 2)
	res, quality, err := w.Run(cl, evenAssignment(corpus.Len(), 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 || quality["candidates"] <= 0 {
		t.Errorf("degenerate run: %v %v", res.Makespan, quality)
	}
}

func TestGraphCompressionAdapter(t *testing.T) {
	g, _, err := datasets.GenerateGraph(datasets.UKLike(0.0001))
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := pivots.NewGraphCorpus(g)
	if err != nil {
		t.Fatal(err)
	}
	w := &GraphCompression{Graph: corpus}
	if w.Scheme() != partitioner.SimilarTogether {
		t.Error("compression must want similar-together placement")
	}
	cl := tinyCluster(t, 2)
	res, quality, err := w.Run(cl, evenAssignment(corpus.Len(), 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if quality["compression-ratio"] <= 1 {
		t.Errorf("ratio %.2f, want > 1 on a web-like graph", quality["compression-ratio"])
	}
	if res.Makespan <= 0 {
		t.Error("zero makespan")
	}
}

func TestLZ77Adapter(t *testing.T) {
	g, _, err := datasets.GenerateGraph(datasets.UKLike(0.0001))
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := pivots.NewGraphCorpus(g)
	if err != nil {
		t.Fatal(err)
	}
	w := &LZ77Compression{Data: corpus}
	cost, err := w.Profile([]int{0, 1, 2, 3})
	if err != nil || cost <= 0 {
		t.Fatalf("profile cost %v, %v", cost, err)
	}
	cl := tinyCluster(t, 2)
	res, quality, err := w.Run(cl, evenAssignment(corpus.Len(), 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if quality["compression-ratio"] <= 1 {
		t.Errorf("LZ77 ratio %.2f on serialized adjacency records", quality["compression-ratio"])
	}
	if res.DirtyEnergy <= 0 {
		t.Error("no energy accounted at midnight")
	}
}

func TestRunWithEmptyPartitions(t *testing.T) {
	// A partition may legitimately be empty (α < 1 pile-up); every
	// adapter must tolerate it.
	cl := tinyCluster(t, 3)
	for _, w := range tinyWorkloads(t) {
		assign := &partitioner.Assignment{Parts: [][]int{nil, nil, nil}}
		all := make([]int, w.Corpus().Len())
		for i := range all {
			all[i] = i
		}
		assign.Parts[1] = all
		res, _, err := w.Run(cl, assign, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		if res.NodeTimes[0] != 0 || res.NodeTimes[2] != 0 {
			t.Errorf("%s: empty partitions accrued time", w.Name())
		}
	}
}

func TestCombineResults(t *testing.T) {
	a := &cluster.Result{
		NodeTimes: []float64{1, 2}, NodeDirty: []float64{5, 6},
		Makespan: 2, DirtyEnergy: 11,
	}
	b := &cluster.Result{
		NodeTimes: []float64{3, 1}, NodeDirty: []float64{1, 1},
		Makespan: 3, DirtyEnergy: 2,
	}
	c := a.Add(b)
	if c.Makespan != 5 || c.DirtyEnergy != 13 {
		t.Errorf("combined %+v", c)
	}
	if c.NodeTimes[0] != 4 || c.NodeTimes[1] != 3 || c.NodeDirty[0] != 6 || c.NodeDirty[1] != 7 {
		t.Errorf("per-node combine wrong: %+v", c)
	}

	// A real two-phase job at noon: the combined result must carry the
	// busy time and dirty energy both phases booked, and the cluster's
	// gauges, booked per phase, must split the same draw into green and
	// dirty.
	cfg := datasets.RCV1Like(0.0003)
	docs, _, err := datasets.GenerateText(cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := pivots.NewTextCorpus(docs, cfg.VocabSize)
	if err != nil {
		t.Fatal(err)
	}
	w := &TextMining{Docs: corpus, SupportFrac: 0.2, MaxLen: 2}
	cl := tinyCluster(t, 3)
	cl.Telemetry = telemetry.NewRegistry()
	res, _, err := w.Run(cl, evenAssignment(corpus.Len(), 3), 12*3600)
	if err != nil {
		t.Fatal(err)
	}
	snap := cl.Telemetry.Snapshot()
	if runs := snap.Counters["cluster_runs_total"]; runs != 2 {
		t.Fatalf("%d runs booked, want the two phases", runs)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Abs(want) }
	var drawn, dirty float64
	for i, busy := range res.NodeTimes {
		node := fmt.Sprintf(`{node="%d"}`, i)
		if got := snap.Gauges["cluster_node_busy_sec_total"+node]; !near(got, busy) {
			t.Errorf("node %d busy gauge %v s, result %v s", i, got, busy)
		}
		if got := snap.Gauges["energy_node_dirty_wh"+node] * 3600; !near(got, res.NodeDirty[i]) {
			t.Errorf("node %d dirty gauge %v J, result %v J", i, got, res.NodeDirty[i])
		}
		drawn += cl.Nodes[i].Power.Watts() * busy
		dirty += res.NodeDirty[i]
	}
	if !near(dirty, res.DirtyEnergy) {
		t.Errorf("Σ node dirty %v J, total %v J", dirty, res.DirtyEnergy)
	}
	green := snap.Gauges["energy_green_wh_total"] * 3600
	if green <= 0 || res.DirtyEnergy >= drawn {
		t.Errorf("noon run booked green %v J and dirty %v J of %v J drawn", green, res.DirtyEnergy, drawn)
	}
	if got := green + snap.Gauges["energy_dirty_wh_total"]*3600; !near(got, drawn) {
		t.Errorf("green + dirty gauges %v J, drawn %v J", got, drawn)
	}
}

// RunStrategy builds the plan for one strategy in one call and
// executes the workload, returning the measured row.
func RunStrategy(w Workload, cl *cluster.Cluster, cfg core.Config, offset float64) (*StrategyRow, error) {
	if w == nil {
		return nil, errNoWorkload
	}
	plan, err := core.BuildPlan(w.Corpus(), cl, w.Profile, cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: planning %v: %w", cfg.Strategy, err)
	}
	return measure(w, cl, plan, offset)
}

func TestRunStrategyNilWorkload(t *testing.T) {
	cl := tinyCluster(t, 2)
	if _, err := RunStrategy(nil, cl, core.Config{}, 0); err == nil {
		t.Error("nil workload accepted")
	}
	if _, err := MeasureFrontier(nil, cl, []float64{1}, DefaultOptions()); err == nil {
		t.Error("nil workload accepted by MeasureFrontier")
	}
}

// countingWorkload counts its Profile calls.
type countingWorkload struct {
	Workload
	calls int
}

func (w *countingWorkload) Profile(indices []int) (float64, error) {
	w.calls++
	return w.Workload.Profile(indices)
}

// TestFigureCellsShareOneLadder: the cells of a figure differ only in
// strategy and α, so CompareStrategies and MeasureFrontier evaluate the
// sample ladder once per call, not once per heterogeneity-aware cell.
func TestFigureCellsShareOneLadder(t *testing.T) {
	cfg := datasets.RCV1Like(0.0008)
	docs, _, err := datasets.GenerateText(cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := pivots.NewTextCorpus(docs, cfg.VocabSize)
	if err != nil {
		t.Fatal(err)
	}
	ladder, err := sampling.ScheduleWithFloor(corpus.Len())
	if err != nil {
		t.Fatal(err)
	}
	w := &countingWorkload{Workload: &TextMining{Docs: corpus, SupportFrac: 0.15, MaxLen: 2}}
	cl := tinyCluster(t, 4)
	if _, err := CompareStrategies(w, cl, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if w.calls != len(ladder) {
		t.Errorf("CompareStrategies made %d profile calls, want one ladder of %d", w.calls, len(ladder))
	}
	w.calls = 0
	if _, err := MeasureFrontier(w, cl, fig5Alphas(), DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if w.calls != len(ladder) {
		t.Errorf("MeasureFrontier over %d α values made %d profile calls, want one ladder of %d",
			len(fig5Alphas()), w.calls, len(ladder))
	}
}
