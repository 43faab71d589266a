package bench

import (
	"fmt"
	"testing"

	"pareto/internal/cluster"
	"pareto/internal/core"
	"pareto/internal/datasets"
	"pareto/internal/energy"
	"pareto/internal/pivots"
	"pareto/internal/sampling"
	"pareto/internal/sim"
	"pareto/internal/workloads/apriori"
)

func TestStealingScheduleBalancesButInflatesWork(t *testing.T) {
	cfg := datasets.RCV1Like(0.0008)
	docs, _, err := datasets.GenerateText(cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := pivots.NewTextCorpus(docs, cfg.VocabSize)
	if err != nil {
		t.Fatal(err)
	}
	w := &TextMining{Docs: corpus, SupportFrac: 0.15, MaxLen: 2}
	cl := tinyCluster(t, 8)
	o := DefaultOptions()

	het, err := RunStrategy(w, cl, core.Config{
		Strategy: core.HetAware, Scheme: w.Scheme(),
		TraceOffset: o.TraceOffset, MinPartitionFrac: o.MinPartitionFrac,
	}, o.TraceOffset)
	if err != nil {
		t.Fatal(err)
	}
	steal, err := RunWorkStealingMining(w, cl, 2, o.TraceOffset)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("het-aware: %.3fs, %d candidates; stealing: %.3fs, %d candidates",
		het.TimeSec, int(het.Quality["candidates"]), steal.TimeSec, steal.Candidates)
	// The paper's §I claim: fragmentation inflates the candidate space.
	if steal.Candidates <= int(het.Quality["candidates"]) {
		t.Errorf("stealing candidates %d not above het-aware's %d — fragmentation effect missing",
			steal.Candidates, int(het.Quality["candidates"]))
	}
	if steal.Chunks != 16 {
		t.Errorf("chunks = %d, want 16", steal.Chunks)
	}
}

func TestStealingScheduleValidation(t *testing.T) {
	cl := tinyCluster(t, 2)
	if _, err := stealingSchedule(cl, []float64{-1}, 0); err == nil {
		t.Error("negative chunk cost accepted")
	}
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
	if _, err := RunWorkStealingMining(w, cl, 0, 0); err == nil {
		t.Error("zero chunks accepted")
	}
}

func TestStealingScheduleGreedyProperty(t *testing.T) {
	cl := tinyCluster(t, 4) // speeds 4/3/2/1
	// Many equal unit chunks: greedy scheduling's makespan must be
	// within 2x of the fluid optimum total/(Σspeed), the classic list
	// scheduling bound.
	costs := make([]float64, 100)
	for i := range costs {
		costs[i] = 1e6
	}
	res, err := stealingSchedule(cl, costs, 0)
	if err != nil {
		t.Fatal(err)
	}
	fluid := 100e6 / ((4 + 3 + 2 + 1) * cl.CostRate)
	if res.Makespan < fluid {
		t.Errorf("makespan %.3f below fluid bound %.3f — impossible", res.Makespan, fluid)
	}
	if res.Makespan > 2*fluid {
		t.Errorf("makespan %.3f above 2× fluid bound %.3f", res.Makespan, 2*fluid)
	}
	// Cost conservation.
	var total float64
	for _, c := range res.NodeCosts {
		total += c
	}
	if total != 100e6 {
		t.Errorf("scheduled cost %v, want 1e8", total)
	}
	// Faster nodes process more cost.
	if !(res.NodeCosts[0] > res.NodeCosts[3]) {
		t.Errorf("fast node cost %v not above slow node %v", res.NodeCosts[0], res.NodeCosts[3])
	}
}

// countedProfile counts Profile calls on the workload it wraps.
type countedProfile struct {
	Workload
	calls int
}

func (c *countedProfile) Profile(indices []int) (float64, error) {
	c.calls++
	return c.Workload.Profile(indices)
}

func TestPlanOverhead(t *testing.T) {
	cfg := datasets.RCV1Like(0.0006)
	docs, _, err := datasets.GenerateText(cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := pivots.NewTextCorpus(docs, cfg.VocabSize)
	if err != nil {
		t.Fatal(err)
	}
	w := &countedProfile{Workload: &TextMining{Docs: corpus, SupportFrac: 0.15, MaxLen: 2}}
	cl := tinyCluster(t, 4)
	o := DefaultOptions()
	sum, wall, makespan, err := planOverhead(w, cl, o)
	if err != nil {
		t.Fatal(err)
	}
	stages := make(map[string]float64)
	total := 0.0
	for _, st := range sum.Stages {
		stages[st.Name] = st.Ms
		total += st.Ms
	}
	for _, name := range []string{"stratify", "profile", "optimize"} {
		if stages[name] <= 0 {
			t.Errorf("stage %q took %v ms: %+v", name, stages[name], sum.Stages)
		}
	}
	if sum.StratifyIterations == 0 || sum.StratifySketchMs <= 0 {
		t.Errorf("stratify breakdown missing: %+v", sum)
	}
	if sum.StratifySketchMs+sum.StratifyClusterMs > stages["stratify"] {
		t.Errorf("stage breakdown %v+%v ms exceeds the stratify stage's %v ms",
			sum.StratifySketchMs, sum.StratifyClusterMs, stages["stratify"])
	}
	if wallMs := float64(wall.Nanoseconds()) / 1e6; total > wallMs {
		t.Errorf("stages sum to %v ms, more than the plan's %v ms wall-clock", total, wallMs)
	}
	if makespan <= 0 {
		t.Error("no job time")
	}
	// The plan the report times is the plan it runs: one BuildPlan, so one
	// profile call per rung of the sample ladder.
	ladder, err := sampling.ScheduleWithFloor(corpus.Len())
	if err != nil {
		t.Fatal(err)
	}
	if w.calls != len(ladder) {
		t.Errorf("%d profile calls for a %d-rung ladder: the report planned more than once", w.calls, len(ladder))
	}
	if _, _, _, err := planOverhead(nil, cl, o); err == nil {
		t.Error("nil workload accepted")
	}
}

// StealingResult compares the idealized work-stealing strawman against
// the framework on the text-mining workload.
type StealingResult struct {
	// Chunks is the number of work-stealing chunks.
	Chunks int
	// TimeSec is the stealing schedule's makespan (both phases).
	TimeSec float64
	// DirtyJ is its dirty energy.
	DirtyJ float64
	// Candidates is the global candidate count its fragmentation
	// produced (versus the framework's stratified partitions).
	Candidates int
}

// stealingSchedule simulates an idealized work-stealing execution of
// the chunks on cl: every chunk is queued at the job's start and
// sim.GreedyStealing hands the next one to whichever node frees up
// first.
func stealingSchedule(cl *cluster.Cluster, chunkCosts []float64, offset float64) (*sim.Result, error) {
	tasks := make([]sim.Task, len(chunkCosts))
	for i, cost := range chunkCosts {
		tasks[i] = sim.Task{Cost: cost, Pin: -1}
	}
	return sim.Run(sim.Config{Cluster: cl, Offset: offset, Policy: &sim.GreedyStealing{}}, tasks)
}

// RunWorkStealingMining executes the partitioned text-mining job under
// work stealing: the corpus is pre-split payload-obliviously (round
// robin, as a generic runtime would) into chunksPerNode×P chunks, each
// chunk is mined locally (phase 1), then every chunk runs the global
// candidate count pass (phase 2); both phases are scheduled greedily
// onto the heterogeneous nodes.
//
// Because the Savasere scheme's local support threshold scales with
// chunk size, fragmenting the data into more, smaller,
// payload-oblivious chunks manufactures locally-frequent-but-globally-
// rare patterns — work stealing balances machine load while inflating
// the work itself (paper §I).
func RunWorkStealingMining(w *TextMining, cl *cluster.Cluster, chunksPerNode int, offset float64) (*StealingResult, error) {
	if chunksPerNode < 1 {
		return nil, fmt.Errorf("bench: chunksPerNode %d", chunksPerNode)
	}
	n := w.Docs.Len()
	nChunks := chunksPerNode * cl.P()
	if nChunks > n {
		nChunks = n
	}
	chunks := make([][]apriori.Transaction, nChunks)
	for i := 0; i < n; i++ {
		c := i % nChunks
		chunks[c] = append(chunks[c], w.Docs.Docs[i].Terms)
	}
	// Phase 1: local mining per chunk (real algorithm, real costs).
	costs1 := make([]float64, nChunks)
	locals := make([]*apriori.PartitionResult, nChunks)
	for ci, chunk := range chunks {
		if len(chunk) == 0 {
			continue
		}
		pr, err := apriori.MineLocal(chunk, w.SupportFrac, w.MaxLen)
		if err != nil {
			return nil, err
		}
		locals[ci] = pr
		costs1[ci] = pr.Cost
	}
	res1, err := stealingSchedule(cl, costs1, offset)
	if err != nil {
		return nil, err
	}
	cands := apriori.GlobalCandidates(locals)
	// Phase 2: count pass per chunk.
	costs2 := make([]float64, nChunks)
	for ci, chunk := range chunks {
		if len(chunk) == 0 {
			continue
		}
		_, cost := apriori.CountPass(chunk, cands)
		costs2[ci] = cost
	}
	res2, err := stealingSchedule(cl, costs2, offset+res1.Makespan)
	if err != nil {
		return nil, err
	}
	return &StealingResult{
		Chunks:     nChunks,
		TimeSec:    res1.Makespan + res2.Makespan,
		DirtyJ:     res1.DirtyEnergy + res2.DirtyEnergy,
		Candidates: len(cands),
	}, nil
}

// BenchmarkAblationWorkStealing contrasts the framework's Het-Aware
// partitioning with the idealized work-stealing strawman of §I on
// partitioned text mining: stealing balances machine load but its
// payload-oblivious fragmentation inflates the candidate space.
func BenchmarkAblationWorkStealing(b *testing.B) {
	cfg := datasets.RCV1Like(0.0008)
	docs, _, err := datasets.GenerateText(cfg)
	if err != nil {
		b.Fatal(err)
	}
	corpus, err := pivots.NewTextCorpus(docs, cfg.VocabSize)
	if err != nil {
		b.Fatal(err)
	}
	w := &TextMining{Docs: corpus, SupportFrac: 0.15, MaxLen: 2}
	cl, err := cluster.PaperCluster(8, energy.DefaultPanel(), 172, 48)
	if err != nil {
		b.Fatal(err)
	}
	o := DefaultOptions()
	for i := 0; i < b.N; i++ {
		het, err := RunStrategy(w, cl, core.Config{
			Strategy: core.HetAware, Scheme: w.Scheme(),
			TraceOffset: o.TraceOffset, MinPartitionFrac: o.MinPartitionFrac,
		}, o.TraceOffset)
		if err != nil {
			b.Fatal(err)
		}
		steal, err := RunWorkStealingMining(w, cl, 2, o.TraceOffset)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(het.Quality["candidates"], "hetaware-candidates")
		b.ReportMetric(float64(steal.Candidates), "stealing-candidates")
		b.ReportMetric(100*Improvement(steal.TimeSec, het.TimeSec), "hetaware-vs-stealing-time-%")
	}
}
