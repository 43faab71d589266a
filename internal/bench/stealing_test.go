package bench

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"

	"pareto/internal/cluster"
	"pareto/internal/core"
	"pareto/internal/datasets"
	"pareto/internal/energy"
	"pareto/internal/pivots"
	"pareto/internal/sampling"
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

// stealingSchedule is an idealized work-stealing execution of the
// chunks on cl (paper §I's strawman): every chunk is queued at the
// job's start, and whichever node frees up first takes the next one —
// greedy list scheduling. Nodes are visited fastest-first (stable by
// speed) and a chunk goes to the node with the strictly earliest
// finish, so ties go to the fastest node, which wins the race for the
// queue in a real stealing runtime. Each node is busy from the start
// until its last chunk ends, so Cluster.Account books the schedule.
func stealingSchedule(cl *cluster.Cluster, chunkCosts []float64, offset float64) (*cluster.Result, error) {
	if err := cl.Validate(); err != nil {
		return nil, err
	}
	order := make([]int, cl.P())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cl.Nodes[order[a]].Speed > cl.Nodes[order[b]].Speed })
	costs := make([]float64, cl.P())
	finish := make([]float64, cl.P())
	for k, cost := range chunkCosts {
		if !(cost >= 0) || math.IsInf(cost, 1) {
			return nil, fmt.Errorf("bench: chunk %d cost %v, want finite >= 0", k, cost)
		}
		best := order[0]
		for _, i := range order {
			if finish[i] < finish[best] {
				best = i
			}
		}
		finish[best] += cluster.ServiceTime(cl.Nodes[best].Speed, cl.CostRate, cost, 0)
		costs[best] += cost
	}
	return cl.Account(offset, costs, finish), nil
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
	views := make([]*apriori.Partition, nChunks)
	locals := make([]*apriori.PartitionResult, nChunks)
	for ci, chunk := range chunks {
		if len(chunk) == 0 {
			continue
		}
		views[ci] = apriori.NewPartition(chunk)
		pr, err := apriori.MineLocal(views[ci], w.SupportFrac, w.MaxLen)
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
	for ci, v := range views {
		if v == nil {
			continue
		}
		_, cost := apriori.CountPass(v, cands)
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

// stealCluster is the paper-shaped p-node testbed (speeds cycling
// 4/3/2/1) with 48 h traces from the summer solstice.
func stealCluster(t *testing.T, p int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.PaperCluster(p, energy.DefaultPanel(), 172, 48)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestStealingScheduleSingleChunk(t *testing.T) {
	c := stealCluster(t, 4)
	res, err := stealingSchedule(c, []float64{4e6}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The single chunk goes to the fastest node (tie at finish 0).
	if res.NodeCosts[0] != 4e6 {
		t.Errorf("chunk not on fastest node: %v", res.NodeCosts)
	}
	if math.Abs(res.Makespan-1) > 1e-9 {
		t.Errorf("makespan %v, want 1s (4e6 cost at speed 4)", res.Makespan)
	}
}

func TestStealingScheduleEmptyAndErrors(t *testing.T) {
	c := stealCluster(t, 4)
	res, err := stealingSchedule(c, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 0 || res.DirtyEnergy != 0 {
		t.Error("empty schedule accrued work")
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := stealingSchedule(c, []float64{1e6, bad}, 0); err == nil {
			t.Errorf("chunk cost %v accepted", bad)
		}
	}
	empty := &cluster.Cluster{CostRate: 1}
	if _, err := stealingSchedule(empty, []float64{1}, 0); err == nil {
		t.Error("empty cluster accepted")
	}
	slow := stealCluster(t, 4)
	slow.Nodes[2].Speed = 0
	if _, err := stealingSchedule(slow, []float64{1}, 0); err == nil {
		t.Error("zero-speed cluster accepted")
	}
}

func TestStealingScheduleEnergyAccounting(t *testing.T) {
	c := stealCluster(t, 4)
	costs := make([]float64, 40)
	for i := range costs {
		costs[i] = 1e6
	}
	// At midnight everything is dirty: dirty must equal total.
	res, err := stealingSchedule(c, costs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.DirtyEnergy-res.TotalEnergy) > 1e-9 {
		t.Errorf("midnight dirty %v != total %v", res.DirtyEnergy, res.TotalEnergy)
	}
	// At noon some energy is green.
	noon, err := stealingSchedule(c, costs, 12*3600)
	if err != nil {
		t.Fatal(err)
	}
	if noon.DirtyEnergy >= res.DirtyEnergy {
		t.Errorf("noon dirty %v not below midnight %v", noon.DirtyEnergy, res.DirtyEnergy)
	}
}

func TestStealingScheduleApproachesFluidBound(t *testing.T) {
	// With many small chunks, greedy stealing's makespan approaches
	// total/(Σ speed·rate) — near-perfect load balance, the property
	// that makes stealing attractive when payload does not matter.
	c := stealCluster(t, 4)
	costs := make([]float64, 1000)
	for i := range costs {
		costs[i] = 1e5
	}
	res, err := stealingSchedule(c, costs, 0)
	if err != nil {
		t.Fatal(err)
	}
	fluid := 1000 * 1e5 / ((4 + 3 + 2 + 1) * c.CostRate)
	if res.Makespan > fluid*1.05 {
		t.Errorf("makespan %v more than 5%% above fluid bound %v", res.Makespan, fluid)
	}
}

// The stealing schedule reports green energy alongside dirty, through
// the same accounting as Cluster.Run.
func TestStealingScheduleGreenAccounting(t *testing.T) {
	c := stealCluster(t, 4)
	costs := make([]float64, 40)
	for i := range costs {
		costs[i] = 1e6
	}
	res, err := stealingSchedule(c, costs, 12*3600) // noon
	if err != nil {
		t.Fatal(err)
	}
	if res.GreenEnergy <= 0 {
		t.Error("noon run reported no green energy")
	}
	var sum float64
	for i, g := range res.NodeGreen {
		if g < 0 {
			t.Errorf("node %d green %v < 0", i, g)
		}
		sum += g
	}
	if math.Abs(sum-res.GreenEnergy) > 1e-9 {
		t.Error("per-node green does not sum to total")
	}
	if math.Abs(res.GreenEnergy+res.DirtyEnergy-res.TotalEnergy) > 1e-6 {
		t.Errorf("green %v + dirty %v != total %v", res.GreenEnergy, res.DirtyEnergy, res.TotalEnergy)
	}
}

// chunkFixtures are chunk-cost workloads: uniform chunks, a
// heavy-tailed mix, a payload-skewed ramp, and a seeded random batch —
// plus degenerate shapes (empty, single, zero-cost chunks).
func chunkFixtures() map[string][]float64 {
	rng := rand.New(rand.NewSource(1234))
	random := make([]float64, 500)
	for i := range random {
		random[i] = rng.Float64() * 3e6
	}
	ramp := make([]float64, 200)
	for i := range ramp {
		ramp[i] = float64(i+1) * 1e4
	}
	return map[string][]float64{
		"uniform": {1e6, 1e6, 1e6, 1e6, 1e6, 1e6, 1e6, 1e6, 1e6, 1e6},
		"heavy":   {8e6, 1e5, 1e5, 1e5, 1e5, 1e5, 1e5, 1e5, 4e6, 2e6, 1e5, 1e5},
		"ramp":    ramp,
		"random":  random,
		"single":  {4e6},
		"zeros":   {0, 1e6, 0, 2e6, 0},
		"empty":   {},
	}
}

// resultDigest is FNV-1a over the Float64bits of a schedule's makespan,
// total, green and dirty energy, then every node's time, cost, dirty and
// green energy, in that order.
func resultDigest(r *cluster.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	put(r.Makespan)
	put(r.TotalEnergy)
	put(r.GreenEnergy)
	put(r.DirtyEnergy)
	for i := range r.NodeTimes {
		put(r.NodeTimes[i])
		put(r.NodeCosts[i])
		put(r.NodeDirty[i])
		put(r.NodeGreen[i])
	}
	return h.Sum64()
}

// stealingRecorded pins the schedule of every chunk fixture on a
// p-node paper cluster started offset hours into its traces. The digests
// were recorded from the discrete-event simulator's greedy-stealing
// policy over the same chunks all queued at t = 0, before that
// simulator was deleted, so they hold the schedule to it bit for bit.
var stealingRecorded = []struct {
	fixture string
	p       int
	hours   int
	digest  uint64
}{
	{"empty", 1, 0, 0xb9b23f3a46fd0825}, {"empty", 1, 12, 0xb9b23f3a46fd0825}, {"empty", 1, 30, 0xb9b23f3a46fd0825},
	{"empty", 4, 0, 0x81b169c331cabfa5}, {"empty", 4, 12, 0x81b169c331cabfa5}, {"empty", 4, 30, 0x81b169c331cabfa5},
	{"empty", 8, 0, 0x66e368127e9e89a5}, {"empty", 8, 12, 0x66e368127e9e89a5}, {"empty", 8, 30, 0x66e368127e9e89a5},
	{"empty", 13, 0, 0xddedd579bea76625}, {"empty", 13, 12, 0xddedd579bea76625}, {"empty", 13, 30, 0xddedd579bea76625},
	{"heavy", 1, 0, 0x152990d27765f541}, {"heavy", 1, 12, 0x15e4c11bb422050d}, {"heavy", 1, 30, 0x21e559a0d3f73a69},
	{"heavy", 4, 0, 0x355e6c0d116fb679}, {"heavy", 4, 12, 0x5d2b26c4d3dcceee}, {"heavy", 4, 30, 0xc8367b4adbb31c50},
	{"heavy", 8, 0, 0x78e8d7b745e8d141}, {"heavy", 8, 12, 0x2b1dc284d2a9c601}, {"heavy", 8, 30, 0x9202d5163c8e72d8},
	{"heavy", 13, 0, 0xca5d3d984c821672}, {"heavy", 13, 12, 0x1fbbc1a35597a174}, {"heavy", 13, 30, 0x11c9d6b1ee3ee69c},
	{"ramp", 1, 0, 0x8f6eab204794d8fb}, {"ramp", 1, 12, 0x4837ba184a70a377}, {"ramp", 1, 30, 0x3f61afdb2fd9fc7b},
	{"ramp", 4, 0, 0x1ec61db6b94a8c29}, {"ramp", 4, 12, 0xddaabeae6b54e343}, {"ramp", 4, 30, 0xb8b06809b8dac9df},
	{"ramp", 8, 0, 0x713f3121788b6b81}, {"ramp", 8, 12, 0xc76a86b2e09a1bea}, {"ramp", 8, 30, 0x5b3933f90c5dedd7},
	{"ramp", 13, 0, 0xab925f6ca74655a0}, {"ramp", 13, 12, 0x6d643da24458c652}, {"ramp", 13, 30, 0xe76cefe8030fa096},
	{"random", 1, 0, 0xed4024cee2c8f4da}, {"random", 1, 12, 0x740c6bd2c94facde}, {"random", 1, 30, 0x37b8c1186571de2a},
	{"random", 4, 0, 0xb0a6dc7d15abb152}, {"random", 4, 12, 0x11adf087893abb21}, {"random", 4, 30, 0xf6366a49db370755},
	{"random", 8, 0, 0xca18e4cfee45e31a}, {"random", 8, 12, 0x25a6ebcdb31d6686}, {"random", 8, 30, 0x0f12966a1a0e269c},
	{"random", 13, 0, 0x39cbfae44862a5c3}, {"random", 13, 12, 0x9c3afacb49b0fe3e}, {"random", 13, 30, 0x213b9c0aa667c640},
	{"single", 1, 0, 0x9cedc465b8a02697}, {"single", 1, 12, 0x698086bc1271cfdb}, {"single", 1, 30, 0x75b51a399a52e0b3},
	{"single", 4, 0, 0xb3d9e3f4fe2a8917}, {"single", 4, 12, 0xa925142741e8185b}, {"single", 4, 30, 0x96f9ef0140566d33},
	{"single", 8, 0, 0x51f23922ec5e3717}, {"single", 8, 12, 0xaa9961bcb6c44e5b}, {"single", 8, 30, 0xc5efa617d4385333},
	{"single", 13, 0, 0x36cf4711e7403097}, {"single", 13, 12, 0x867780b167d771db}, {"single", 13, 30, 0x7b0dd501395192b3},
	{"uniform", 1, 0, 0x22c1a0c49e7c063e}, {"uniform", 1, 12, 0x07c7be77010874e6}, {"uniform", 1, 30, 0xaad037af8d7d542a},
	{"uniform", 4, 0, 0xb871cea472b9f58f}, {"uniform", 4, 12, 0x884cafb0909df0b5}, {"uniform", 4, 30, 0x58b4a37487eaba4b},
	{"uniform", 8, 0, 0x44eeee20b71c0798}, {"uniform", 8, 12, 0x4896394ba3299aef}, {"uniform", 8, 30, 0xb0da73c8fcc71ced},
	{"uniform", 13, 0, 0x6a9226b4fe0f3054}, {"uniform", 13, 12, 0x7b866228ee7736b2}, {"uniform", 13, 30, 0xf54c6e0cf5632567},
	{"zeros", 1, 0, 0xde4ea9143e18b161}, {"zeros", 1, 12, 0x5d7fd0ff73a1a1c1}, {"zeros", 1, 30, 0xb17a4bccb9e33949},
	{"zeros", 4, 0, 0x00b4ba413f6f046f}, {"zeros", 4, 12, 0x2bd54a056b463ff3}, {"zeros", 4, 30, 0xb815c19421655007},
	{"zeros", 8, 0, 0xc96e2048efcd413c}, {"zeros", 8, 12, 0x53d07600afec0d39}, {"zeros", 8, 30, 0xde47d1eddd1565ee},
	{"zeros", 13, 0, 0x62528b6f5cd9573c}, {"zeros", 13, 12, 0xb40eb1ca3340dbb9}, {"zeros", 13, 30, 0x52957b663ed4b8ee},
}

// The schedule is pinned bit for bit: makespan, every energy total and
// every per-node time, cost, dirty and green value, for each chunk
// fixture × p ∈ {1, 4, 8, 13} × offsets {0, 12 h, 30 h}. Ties sent to
// the slowest node move 48 of the 84 digests; booking from offset+1
// moves the seven whose busy spans cross a trace step boundary.
func TestStealingScheduleRecordedBits(t *testing.T) {
	fixtures := chunkFixtures()
	clusters := make(map[int]*cluster.Cluster)
	for _, rec := range stealingRecorded {
		if clusters[rec.p] == nil {
			clusters[rec.p] = stealCluster(t, rec.p)
		}
		res, err := stealingSchedule(clusters[rec.p], fixtures[rec.fixture], float64(rec.hours)*3600)
		if err != nil {
			t.Fatal(err)
		}
		if got := resultDigest(res); got != rec.digest {
			t.Errorf("%s p=%d offset %dh: digest %#016x, recorded %#016x (makespan %v, dirty %v J)",
				rec.fixture, rec.p, rec.hours, got, rec.digest, res.Makespan, res.DirtyEnergy)
		}
	}
	if len(stealingRecorded) != len(fixtures)*4*3 {
		t.Errorf("%d recorded cases, want every fixture × 4 cluster sizes × 3 offsets", len(stealingRecorded))
	}
}
