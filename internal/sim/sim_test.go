package sim

import (
	"math"
	"testing"

	"pareto/internal/cluster"
	"pareto/internal/energy"
	"pareto/internal/telemetry"
)

// paperCluster builds a p-node paper-shaped cluster with 48h traces
// starting at dayOfYear.
func paperCluster(tb testing.TB, p, dayOfYear int) *cluster.Cluster {
	tb.Helper()
	c, err := cluster.PaperCluster(p, energy.DefaultPanel(), dayOfYear, 48)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// fourNodes returns the paper-shaped 4-node testbed (speeds 4/3/2/1)
// with 48h traces from the summer solstice.
func fourNodes(t *testing.T) *cluster.Cluster {
	return paperCluster(t, 4, 172)
}

// oneNode is a single-node cluster made of node i of cl.
func oneNode(cl *cluster.Cluster, i int) *cluster.Cluster {
	return &cluster.Cluster{Nodes: cl.Nodes[i : i+1], CostRate: cl.CostRate}
}

func TestRunSingleBatchBasics(t *testing.T) {
	cl := fourNodes(t)
	// One task per node, pinned: 4e6 on speed 4 → 1 s, 2e6 on speed 1 → 2 s.
	tasks := []Task{
		{Cost: 4e6, Pin: 0},
		{Cost: 3e6, Pin: 1},
		{Cost: 2e6, Pin: 3},
	}
	res, err := Run(Config{Cluster: cl, Offset: 12 * 3600}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.NodeTimes[0]-1) > 1e-9 || math.Abs(res.NodeTimes[3]-2) > 1e-9 {
		t.Errorf("node times %v", res.NodeTimes)
	}
	if res.NodeTimes[2] != 0 || res.NodeDirty[2] != 0 || res.NodeTasks[2] != 0 {
		t.Error("idle node accrued work")
	}
	if math.Abs(res.Makespan-2) > 1e-9 {
		t.Errorf("makespan %v, want 2", res.Makespan)
	}
	if res.Tasks != 3 || res.Events != 6 {
		t.Errorf("tasks %d events %d, want 3 and 6", res.Tasks, res.Events)
	}
	if res.MeanWaitSec != 0 || res.MaxWaitSec != 0 {
		t.Errorf("pinned batch queued: mean %v max %v", res.MeanWaitSec, res.MaxWaitSec)
	}
	if res.Policy != "" || res.Decisions != nil {
		t.Errorf("pinned batch produced policy artifacts: %q %v", res.Policy, res.Decisions)
	}
	if res.DirtyEnergy <= 0 || res.TotalEnergy <= 0 || res.DirtyEnergy > res.TotalEnergy+1e-9 {
		t.Errorf("dirty %v total %v", res.DirtyEnergy, res.TotalEnergy)
	}
	if math.Abs(res.GreenEnergy+res.DirtyEnergy-res.TotalEnergy) > 1e-6 {
		t.Errorf("green %v + dirty %v != total %v", res.GreenEnergy, res.DirtyEnergy, res.TotalEnergy)
	}
}

// A saturated single node must serialize tasks: completions stack,
// queueing delay grows linearly, and the busy interval is contiguous.
func TestRunQueueingOnOneNode(t *testing.T) {
	cl := fourNodes(t)
	one := oneNode(cl, 3) // speed 1: 1e6 cost = 1 s
	var tasks []Task
	for i := 0; i < 5; i++ {
		tasks = append(tasks, Task{Arrival: 0, Cost: 1e6, Pin: 0})
	}
	res, err := Run(Config{Cluster: one}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-5) > 1e-9 {
		t.Errorf("makespan %v, want 5", res.Makespan)
	}
	// Waits are 0,1,2,3,4 s → mean 2, max 4.
	if math.Abs(res.MeanWaitSec-2) > 1e-9 || math.Abs(res.MaxWaitSec-4) > 1e-9 {
		t.Errorf("wait mean %v max %v, want 2 and 4", res.MeanWaitSec, res.MaxWaitSec)
	}
	if res.Wait.Count != 5 {
		t.Errorf("wait histogram count %d, want 5", res.Wait.Count)
	}
	// Quantile sanity on the histogram: p99 within a bucket of 4 s.
	if p99 := res.Wait.Quantile(0.99) / 1e6; p99 < 2 || p99 > 8.4 {
		t.Errorf("p99 wait %v s", p99)
	}
}

// Idle gaps must split busy intervals: a task at night and a task at
// noon, with the night one fully dirty and the noon one mostly green,
// must not be billed as one contiguous stretch.
func TestRunIdleGapSplitsEnergyIntervals(t *testing.T) {
	cl := fourNodes(t)
	one := oneNode(cl, 0) // speed 4: 4e6 = 1 s
	tasks := []Task{
		{Arrival: 0, Cost: 4e6, Pin: 0},         // midnight: all dirty
		{Arrival: 12 * 3600, Cost: 4e6, Pin: 0}, // noon: some green
	}
	res, err := Run(Config{Cluster: one}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.NodeTimes[0]-2) > 1e-9 {
		t.Errorf("busy %v, want 2 (gap must not count)", res.NodeTimes[0])
	}
	// If the gap were billed, dirty would be ~12h × 440 W ≈ 1.9e7 J;
	// two 1-second tasks draw ≤ 880 J.
	if res.TotalEnergy > 1000 {
		t.Errorf("total energy %v J: idle gap was billed", res.TotalEnergy)
	}
	// Noon task on this trace sees green power, so dirty < total.
	if !(res.DirtyEnergy < res.TotalEnergy) {
		t.Errorf("dirty %v not below total %v: noon green missing", res.DirtyEnergy, res.TotalEnergy)
	}
	if math.Abs(res.Makespan-(12*3600+1)) > 1e-9 {
		t.Errorf("makespan %v", res.Makespan)
	}
}

func TestRunPoliciesRouteSanely(t *testing.T) {
	cl := fourNodes(t)
	tasks, err := Generate(GenConfig{Process: Poisson, Rate: 40, Duration: 30, CostMean: 2e5, CostSpread: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range PolicyNames() {
		pol, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{Cluster: cl, Policy: pol}, tasks)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Policy != name {
			t.Errorf("policy name %q, want %q", res.Policy, name)
		}
		total := 0
		for _, n := range res.NodeTasks {
			total += n
		}
		if total != len(tasks) || res.Tasks != len(tasks) {
			t.Errorf("%s: routed %d of %d tasks", name, total, len(tasks))
		}
		if res.Events != int64(2*len(tasks)) {
			t.Errorf("%s: %d events for %d tasks", name, res.Events, len(tasks))
		}
		var sumCost float64
		for _, c := range res.NodeCosts {
			sumCost += c
		}
		var want float64
		for _, task := range tasks {
			want += task.Cost
		}
		if math.Abs(sumCost-want) > 1e-6*want {
			t.Errorf("%s: cost conservation broke: %v vs %v", name, sumCost, want)
		}
		// The heterogeneity-aware policies must beat round-robin's
		// makespan on a heterogeneous cluster... not asserted per-pair,
		// but every makespan must at least cover the fluid bound.
		var totalSvc float64
		for i := range res.NodeTimes {
			totalSvc += res.NodeTimes[i]
		}
		if res.Makespan <= 0 || totalSvc <= 0 {
			t.Errorf("%s: degenerate result", name)
		}
	}
}

// Weighted-scoring and greedy-stealing must exploit the fast nodes:
// on a 4/3/2/1 cluster under sustained load they should hand the
// speed-4 node more work than the speed-1 node.
func TestRunHeterogeneityAwarePoliciesLoadFastNodes(t *testing.T) {
	cl := fourNodes(t)
	tasks, err := Generate(GenConfig{Process: Uniform, Rate: 30, Duration: 60, CostMean: 2e5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"weighted-scoring", "greedy-stealing"} {
		pol, _ := PolicyByName(name)
		res, err := Run(Config{Cluster: cl, Policy: pol}, tasks)
		if err != nil {
			t.Fatal(err)
		}
		if res.NodeTasks[0] <= res.NodeTasks[3] {
			t.Errorf("%s: fast node served %d, slow node %d", name, res.NodeTasks[0], res.NodeTasks[3])
		}
	}
}

func TestRunDecisionTrace(t *testing.T) {
	cl := fourNodes(t)
	tasks := []Task{
		{Arrival: 0, Cost: 1e6, Pin: -1},
		{Arrival: 0, Cost: 1e6, Pin: 2}, // pinned: no decision recorded
		{Arrival: 0.5, Cost: 1e6, Pin: -1},
	}
	res, err := Run(Config{Cluster: cl, Policy: &RoundRobin{}, RecordDecisions: true}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != 2 {
		t.Fatalf("decisions %v, want 2 entries", res.Decisions)
	}
	d0, d1 := res.Decisions[0], res.Decisions[1]
	if d0.Seq != 0 || d0.Time != 0 || d0.Task != 0 || d0.Node != 0 {
		t.Errorf("decision 0 = %+v", d0)
	}
	if d1.Seq != 1 || d1.Time != 0.5 || d1.Task != 2 || d1.Node != 1 {
		t.Errorf("decision 1 = %+v", d1)
	}
	if len(d1.QueueDepths) != 4 {
		t.Errorf("queue depths %v", d1.QueueDepths)
	}
	// At t=0.5, the pinned task on node 2 (0.5 s service) is still in
	// flight... depth snapshots are taken before assignment.
	if d0.QueueDepths[0] != 0 {
		t.Errorf("decision 0 depths %v", d0.QueueDepths)
	}
}

func TestRunTelemetry(t *testing.T) {
	cl := fourNodes(t)
	reg := telemetry.NewRegistry()
	cl.Telemetry = reg
	tasks := []Task{{Cost: 4e6, Pin: -1}, {Cost: 4e6, Pin: -1}}
	if _, err := Run(Config{Cluster: cl, Policy: LeastLoaded{}}, tasks); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["sim_runs_total"] != 1 ||
		snap.Counters["sim_tasks_total"] != 2 ||
		snap.Counters["sim_events_total"] != 4 ||
		snap.Counters["sim_decisions_total"] != 2 {
		t.Errorf("counters %v", snap.Counters)
	}
	if snap.Gauges["sim_virtual_sec_total"] <= 0 || snap.Gauges["sim_dirty_wh_total"] <= 0 {
		t.Errorf("gauges %v", snap.Gauges)
	}
	if h, ok := snap.Histograms["sim_wait_us"]; !ok || h.Count != 2 {
		t.Errorf("wait histogram %v", snap.Histograms)
	}
	// Nil registry: same run must work untouched.
	cl.Telemetry = nil
	if _, err := Run(Config{Cluster: cl, Policy: LeastLoaded{}}, tasks); err != nil {
		t.Fatalf("nil-telemetry run: %v", err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	cl := fourNodes(t)
	ok := []Task{{Cost: 1, Pin: 0}}
	hand := func(speed, watts float64) *cluster.Cluster {
		return &cluster.Cluster{
			Nodes:    []cluster.NodeSpec{{Speed: speed, Power: energy.PowerModel{BaseWatts: watts}}},
			CostRate: cl.CostRate,
		}
	}
	cases := map[string]struct {
		cfg   Config
		tasks []Task
	}{
		"no cluster":      {Config{}, ok},
		"no nodes":        {Config{Cluster: &cluster.Cluster{CostRate: cl.CostRate}}, ok},
		"zero rate":       {Config{Cluster: &cluster.Cluster{Nodes: cl.Nodes}}, ok},
		"nan rate":        {Config{Cluster: &cluster.Cluster{Nodes: cl.Nodes, CostRate: math.NaN()}}, ok},
		"inf offset":      {Config{Cluster: cl, Offset: math.Inf(1)}, ok},
		"bad speed":       {Config{Cluster: hand(0, 1)}, ok},
		"bad watts":       {Config{Cluster: hand(1, -1)}, ok},
		"neg arrival":     {Config{Cluster: cl}, []Task{{Arrival: -1, Pin: 0}}},
		"nan arrival":     {Config{Cluster: cl}, []Task{{Arrival: math.NaN(), Pin: 0}}},
		"neg cost":        {Config{Cluster: cl}, []Task{{Cost: -1, Pin: 0}}},
		"neg fixed":       {Config{Cluster: cl}, []Task{{Fixed: -1, Pin: 0}}},
		"pin overflow":    {Config{Cluster: cl}, []Task{{Pin: 4}}},
		"unpinned no pol": {Config{Cluster: cl}, []Task{{Pin: -1}}},
	}
	for name, c := range cases {
		if _, err := Run(c.cfg, c.tasks); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Empty workload is fine: a zero result, not an error.
	res, err := Run(Config{Cluster: cl, Policy: &RoundRobin{}}, nil)
	if err != nil || res.Makespan != 0 || res.Events != 0 {
		t.Errorf("empty workload: %+v, %v", res, err)
	}
}

func TestPolicyByNameUnknown(t *testing.T) {
	if _, err := PolicyByName("lottery"); err == nil {
		t.Error("unknown policy accepted")
	}
	for _, name := range PolicyNames() {
		p, err := PolicyByName(name)
		if err != nil || p.Name() != name {
			t.Errorf("PolicyByName(%q) = %v, %v", name, p, err)
		}
	}
}
