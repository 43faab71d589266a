package cluster

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"pareto/internal/energy"
)

func testCluster(t *testing.T, p int) *Cluster {
	t.Helper()
	c, err := PaperCluster(p, energy.DefaultPanel(), 172, 48)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPaperClusterShape(t *testing.T) {
	c := testCluster(t, 8)
	if c.P() != 8 {
		t.Fatalf("P = %d", c.P())
	}
	wantSpeed := []float64{4, 3, 2, 1, 4, 3, 2, 1}
	wantWatts := []float64{440, 345, 250, 155, 440, 345, 250, 155}
	for i, n := range c.Nodes {
		if n.ID != i {
			t.Errorf("node %d ID %d", i, n.ID)
		}
		if n.Speed != wantSpeed[i] {
			t.Errorf("node %d speed %v, want %v", i, n.Speed, wantSpeed[i])
		}
		if w := n.Power.Watts(); w != wantWatts[i] {
			t.Errorf("node %d watts %v, want %v", i, w, wantWatts[i])
		}
		if n.Trace == nil || len(n.Trace.Power) != 48 {
			t.Errorf("node %d trace missing", i)
		}
	}
	if _, err := PaperCluster(0, energy.DefaultPanel(), 1, 24); err == nil {
		t.Error("0 nodes accepted")
	}
}

func TestHomogeneousCluster(t *testing.T) {
	c, err := HomogeneousCluster(4, energy.DefaultPanel(), 172, 24)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range c.Nodes {
		if n.Speed != 4 || n.Type != 1 {
			t.Errorf("node %d not type-1: %+v", i, n)
		}
	}
}

func TestSimTime(t *testing.T) {
	c := testCluster(t, 4)
	// Node 0 is 4x, node 3 is 1x: same cost → 4x time difference.
	cost := 2e6
	t0 := c.SimTime(0, cost)
	t3 := c.SimTime(3, cost)
	if math.Abs(t3/t0-4) > 1e-9 {
		t.Errorf("time ratio %v, want 4", t3/t0)
	}
	if got := c.SimTime(0, 0); got != 0 {
		t.Errorf("zero cost time %v", got)
	}
	if got := c.SimTime(0, -5); got != 0 {
		t.Errorf("negative cost time %v", got)
	}
	// Absolute calibration: 1e6 cost on a 1x node is 1 second.
	if got := c.SimTime(3, 1e6); math.Abs(got-1) > 1e-9 {
		t.Errorf("1e6 cost on 1x node = %v s, want 1", got)
	}
}

// costTask is a task that reports cost and nothing else.
func costTask(cost float64) func() (TaskReport, error) {
	return func() (TaskReport, error) { return TaskReport{Cost: cost}, nil }
}

// failingTask is a task that fails with err.
func failingTask(err error) func() (TaskReport, error) {
	return func() (TaskReport, error) { return TaskReport{}, err }
}

// runTasks runs tasks[i] as node i's job through Run; a nil task gives
// node i an empty part.
func runTasks(c *Cluster, offset float64, tasks []func() (TaskReport, error)) (*Result, error) {
	parts := make([][]int, len(tasks))
	for i, task := range tasks {
		if task != nil {
			parts[i] = []int{i}
		}
	}
	return c.Run(offset, parts, func(node int, _ []int) (TaskReport, error) { return tasks[node]() })
}

// drawn is the electrical energy res's nodes drew: Σ watts × busy (J).
func drawn(c *Cluster, res *Result) float64 {
	var total float64
	for i, busy := range res.NodeTimes {
		total += c.Nodes[i].Power.Watts() * busy
	}
	return total
}

// Node i's job sees parts[i], and only a node with records runs it.
func TestRunPassesEachNodeItsPart(t *testing.T) {
	c := testCluster(t, 3)
	parts := [][]int{{4, 5}, nil, {7}}
	var seen [3][]int
	res, err := c.Run(0, parts, func(node int, indices []int) (TaskReport, error) {
		seen[node] = indices
		return TaskReport{Cost: float64(len(indices)) * 1e6}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range parts {
		if fmt.Sprint(seen[i]) != fmt.Sprint(parts[i]) {
			t.Errorf("node %d ran on %v, want its part %v", i, seen[i], parts[i])
		}
	}
	if want := []float64{c.SimTime(0, 2e6), 0, c.SimTime(2, 1e6)}; fmt.Sprint(res.NodeTimes) != fmt.Sprint(want) {
		t.Errorf("node times %v, want %v", res.NodeTimes, want)
	}
}

func TestRunAggregates(t *testing.T) {
	c := testCluster(t, 4)
	tasks := []func() (TaskReport, error){
		costTask(4e6), // 4x node → 1 s
		costTask(3e6), // 3x node → 1 s
		nil,           // idle node
		costTask(2e6), // 1x node → 2 s
	}
	res, err := runTasks(c, 12*3600, tasks) // noon: some green available
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.NodeTimes[0]-1) > 1e-9 || math.Abs(res.NodeTimes[3]-2) > 1e-9 {
		t.Errorf("node times %v", res.NodeTimes)
	}
	if res.NodeTimes[2] != 0 || res.NodeDirty[2] != 0 {
		t.Error("idle node accrued time or energy")
	}
	if math.Abs(res.Makespan-2) > 1e-9 {
		t.Errorf("makespan %v, want 2", res.Makespan)
	}
	// Energy sanity: dirty ≤ total, both positive here.
	if total := drawn(c, res); res.DirtyEnergy <= 0 || res.DirtyEnergy > total+1e-9 {
		t.Errorf("dirty %v, total %v", res.DirtyEnergy, total)
	}
	var sumDirty float64
	for _, d := range res.NodeDirty {
		sumDirty += d
	}
	if math.Abs(sumDirty-res.DirtyEnergy) > 1e-9 {
		t.Error("per-node dirty does not sum to total")
	}
}

func TestRunNightIsAllDirty(t *testing.T) {
	c := testCluster(t, 2)
	res, err := runTasks(c, 0, []func() (TaskReport, error){costTask(4e6), costTask(3e6)}) // midnight
	if err != nil {
		t.Fatal(err)
	}
	if total := drawn(c, res); math.Abs(res.DirtyEnergy-total) > 1e-9 {
		t.Errorf("at night dirty %v must equal total %v", res.DirtyEnergy, total)
	}
}

func TestRunErrorPropagation(t *testing.T) {
	c := testCluster(t, 2)
	boom := errors.New("task failed")
	_, err := runTasks(c, 0, []func() (TaskReport, error){costTask(1), failingTask(boom)})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
	if _, err := runTasks(c, 0, []func() (TaskReport, error){nil}); err == nil {
		t.Error("task/node count mismatch accepted")
	}
}

// A task's report comes from outside the model. One that no execution
// could produce must fail the run and name its node, not reach
// Makespan and the energy totals as NaN or Inf.
func TestRunDetailedRejectsImpossibleReports(t *testing.T) {
	c := testCluster(t, 4)
	for name, rep := range map[string]TaskReport{
		"nan cost":   {Cost: math.NaN()},
		"+inf cost":  {Cost: math.Inf(1)},
		"-inf cost":  {Cost: math.Inf(-1)},
		"neg cost":   {Cost: -5},
		"nan fixed":  {Cost: 1e6, FixedSeconds: math.NaN()},
		"+inf fixed": {Cost: 1e6, FixedSeconds: math.Inf(1)},
		"-inf fixed": {Cost: 1e6, FixedSeconds: math.Inf(-1)},
		"neg fixed":  {Cost: 1e6, FixedSeconds: -0.5},
	} {
		rep := rep
		tasks := make([]func() (TaskReport, error), 4)
		tasks[0] = func() (TaskReport, error) { return TaskReport{Cost: 1e6, FixedSeconds: 1}, nil }
		tasks[2] = func() (TaskReport, error) { return rep, nil }
		res, err := runTasks(c, 0, tasks)
		if err == nil {
			t.Errorf("%s: accepted, makespan %v dirty energy %v", name, res.Makespan, res.DirtyEnergy)
		} else if !strings.Contains(err.Error(), "node 2") {
			t.Errorf("%s: error %q does not name node 2", name, err)
		}
	}
}

func TestProfileAllLearnsSpeedHeterogeneity(t *testing.T) {
	c := testCluster(t, 4)
	// A perfectly linear workload: cost = 100 units per record.
	sizes := []int{100, 500, 1000, 5000, 10000}
	costs := make([]float64, len(sizes))
	for k, sz := range sizes {
		costs[k] = float64(sz) * 100
	}
	models, err := c.ProfileAllWithRates(sizes, costs, c.DirtyRates(0, 3600))
	if err != nil {
		t.Fatal(err)
	}
	// Learned slopes must reflect the 4:3:2:1 speeds.
	s0, s3 := models[0].Time.Slope, models[3].Time.Slope
	if math.Abs(s3/s0-4) > 1e-6 {
		t.Errorf("slope ratio %v, want 4", s3/s0)
	}
	// Dirty rates must be nonnegative and ordered plausibly: at
	// midnight (offset 0, 1h window) rate equals full draw.
	if math.Abs(models[0].DirtyRate-440) > 1e-9 {
		t.Errorf("midnight dirty rate %v, want 440", models[0].DirtyRate)
	}
}

func TestProfileAllErrorPropagation(t *testing.T) {
	c := testCluster(t, 2)
	rates := c.DirtyRates(0, 100)
	if _, err := c.ProfileAllWithRates([]int{1, 2}, []float64{1}, rates); err == nil {
		t.Error("one cost for two sample sizes accepted")
	}
	if _, err := c.ProfileAllWithRates([]int{1, 2}, []float64{1, 2}, rates[:1]); err == nil {
		t.Error("one dirty rate for two nodes accepted")
	}
	_, err := c.ProfileAllWithRates([]int{5}, []float64{1}, rates)
	if err == nil || !strings.Contains(err.Error(), "need ≥ 2 points") {
		t.Errorf("one-sample ladder: err = %v, want the fit's error", err)
	}
}

// SimTime on a corrupted cluster must contribute zero time, never
// Inf/NaN — the belt to Validate's suspenders for callers that hit
// SimTime directly.
func TestSimTimeGuardsDivision(t *testing.T) {
	c := testCluster(t, 4)
	c.CostRate = 0
	if got := c.SimTime(0, 1e6); got != 0 || math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("zero CostRate SimTime = %v, want 0", got)
	}
	c = testCluster(t, 4)
	c.Nodes[0].Speed = 0
	if got := c.SimTime(0, 1e6); got != 0 {
		t.Errorf("zero Speed SimTime = %v, want 0", got)
	}
	c.Nodes[0].Speed = math.NaN()
	if got := c.SimTime(0, 1e6); got != 0 {
		t.Errorf("NaN Speed SimTime = %v, want 0", got)
	}
	c.Nodes[0].Speed = -2
	if got := c.SimTime(0, 1e6); got != 0 {
		t.Errorf("negative Speed SimTime = %v, want 0", got)
	}
}

func TestSpeedOfType(t *testing.T) {
	for typ, want := range map[int]float64{1: 4, 2: 3, 3: 2, 4: 1} {
		got, err := SpeedOfType(typ)
		if err != nil || got != want {
			t.Errorf("SpeedOfType(%d) = %v, %v", typ, got, err)
		}
	}
	if _, err := SpeedOfType(0); err == nil {
		t.Error("type 0 accepted")
	}
	if _, err := SpeedOfType(5); err == nil {
		t.Error("type 5 accepted")
	}
}

func TestNodeTraceHeterogeneity(t *testing.T) {
	// Same-site nodes get different seeds; their traces must differ.
	c := testCluster(t, 8)
	a, b := c.Nodes[0].Trace, c.Nodes[4].Trace // both location index 0
	same := true
	for i := range a.Power {
		if a.Power[i] != b.Power[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("co-located nodes share identical traces")
	}
}

func TestResultImbalance(t *testing.T) {
	r := &Result{NodeTimes: []float64{2, 2, 2}, Makespan: 2}
	if got := r.Imbalance(); math.Abs(got-1) > 1e-12 {
		t.Errorf("balanced imbalance %v", got)
	}
	r = &Result{NodeTimes: []float64{1, 0, 3}, Makespan: 3}
	if got := r.Imbalance(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("imbalance %v, want 1.5 (idle node excluded)", got)
	}
	if (&Result{}).Imbalance() != 0 {
		t.Error("empty result imbalance must be 0")
	}
}

// TestMultiNodeErrorsAggregated: when several nodes fail in one run,
// every failure must surface (errors.Join), not just the first.
func TestMultiNodeErrorsAggregated(t *testing.T) {
	c := testCluster(t, 3)
	boom0 := errors.New("node0 exploded")
	boom2 := errors.New("node2 exploded")
	_, err := runTasks(c, 0, []func() (TaskReport, error){failingTask(boom0), costTask(1), failingTask(boom2)})
	if !errors.Is(err, boom0) || !errors.Is(err, boom2) {
		t.Fatalf("aggregated error lost a failure: %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "node 0") || !strings.Contains(msg, "node 2") {
		t.Errorf("error does not name both nodes: %q", msg)
	}

	// ProfileAllWithRates aggregates the same way: a ladder no line can
	// be fitted to fails on every node.
	_, err = c.ProfileAllWithRates([]int{4, 4}, []float64{1, 2}, c.DirtyRates(0, 100))
	if err == nil {
		t.Fatal("ProfileAllWithRates swallowed failures")
	}
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok || len(joined.Unwrap()) != 3 {
		t.Errorf("ProfileAllWithRates error not a 3-node join: %v", err)
	}
}
