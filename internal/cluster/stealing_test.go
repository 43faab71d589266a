package cluster_test

import (
	"math"
	"testing"

	"pareto/internal/cluster"
	"pareto/internal/energy"
	"pareto/internal/sim"
)

// The work-stealing schedule is sim's greedy-stealing policy over a
// batch queued at t = 0. cluster cannot import sim, so the tests that
// drive both live in this external package.

func stealCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.PaperCluster(4, energy.DefaultPanel(), 172, 48)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// steal schedules the chunk costs greedily onto c, all queued at the
// job's start.
func steal(c *cluster.Cluster, chunkCosts []float64, offset float64) (*sim.Result, error) {
	tasks := make([]sim.Task, len(chunkCosts))
	for i, cost := range chunkCosts {
		tasks[i] = sim.Task{Cost: cost, Pin: -1}
	}
	return sim.Run(sim.Config{Cluster: c, Offset: offset, Policy: &sim.GreedyStealing{}}, tasks)
}

func TestStealingScheduleSingleChunk(t *testing.T) {
	c := stealCluster(t)
	res, err := steal(c, []float64{4e6}, 0)
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
	c := stealCluster(t)
	res, err := steal(c, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 0 || res.DirtyEnergy != 0 {
		t.Error("empty schedule accrued work")
	}
	if _, err := steal(c, []float64{-1}, 0); err == nil {
		t.Error("negative cost accepted")
	}
	empty := &cluster.Cluster{CostRate: 1}
	if _, err := steal(empty, []float64{1}, 0); err == nil {
		t.Error("empty cluster accepted")
	}
}

func TestStealingScheduleEnergyAccounting(t *testing.T) {
	c := stealCluster(t)
	costs := make([]float64, 40)
	for i := range costs {
		costs[i] = 1e6
	}
	// At midnight everything is dirty: dirty must equal total.
	res, err := steal(c, costs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.DirtyEnergy-res.TotalEnergy) > 1e-9 {
		t.Errorf("midnight dirty %v != total %v", res.DirtyEnergy, res.TotalEnergy)
	}
	// At noon some energy is green.
	noon, err := steal(c, costs, 12*3600)
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
	c := stealCluster(t)
	costs := make([]float64, 1000)
	for i := range costs {
		costs[i] = 1e5
	}
	res, err := steal(c, costs, 0)
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
	c := stealCluster(t)
	costs := make([]float64, 40)
	for i := range costs {
		costs[i] = 1e6
	}
	res, err := steal(c, costs, 12*3600) // noon
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

// Zero or negative CostRate/Speed used to slip through SimTime as an
// unchecked division, silently propagating Inf/NaN into Makespan and
// the energy totals, and a NaN or negative wattage was booked as
// energy by every entry point but sim.Run, which carried its own
// check. Both constructors must yield Validate-clean
// clusters, and every execution entry point must reject a corrupted
// one loudly.
func TestValidateGuardsCalibration(t *testing.T) {
	for name, build := range map[string]func() (*cluster.Cluster, error){
		"paper":       func() (*cluster.Cluster, error) { return cluster.PaperCluster(8, energy.DefaultPanel(), 172, 24) },
		"homogeneous": func() (*cluster.Cluster, error) { return cluster.HomogeneousCluster(8, energy.DefaultPanel(), 172, 24) },
	} {
		c, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: fresh cluster invalid: %v", name, err)
		}
	}

	corruptions := map[string]func(*cluster.Cluster){
		"zero rate":  func(c *cluster.Cluster) { c.CostRate = 0 },
		"neg rate":   func(c *cluster.Cluster) { c.CostRate = -1e6 },
		"nan rate":   func(c *cluster.Cluster) { c.CostRate = math.NaN() },
		"inf rate":   func(c *cluster.Cluster) { c.CostRate = math.Inf(1) },
		"zero speed": func(c *cluster.Cluster) { c.Nodes[1].Speed = 0 },
		"neg speed":  func(c *cluster.Cluster) { c.Nodes[0].Speed = -3 },
		"nan speed":  func(c *cluster.Cluster) { c.Nodes[2].Speed = math.NaN() },
		"nan watts":  func(c *cluster.Cluster) { c.Nodes[1].Power.BaseWatts = math.NaN() },
		"neg watts":  func(c *cluster.Cluster) { c.Nodes[3].Power = energy.PowerModel{BaseWatts: -1} },
		"inf watts":  func(c *cluster.Cluster) { c.Nodes[0].Power.PerCoreWatts = math.Inf(1) },
	}
	for name, corrupt := range corruptions {
		c := stealCluster(t)
		corrupt(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate passed", name)
		}
		if _, err := c.Run(0, [][]int{{0}, nil, nil, nil}, func(int, []int) (cluster.TaskReport, error) {
			return cluster.TaskReport{Cost: 1e6}, nil
		}); err == nil {
			t.Errorf("%s: Run accepted corrupted cluster", name)
		}
		if _, err := steal(c, []float64{1e6}, 0); err == nil {
			t.Errorf("%s: sim.Run accepted corrupted cluster", name)
		}
		if _, err := c.ProfileAllWithRates([]int{1, 2}, []float64{1, 1}, make([]float64, 4)); err == nil {
			t.Errorf("%s: ProfileAllWithRates accepted corrupted cluster", name)
		}
	}
	if err := (&cluster.Cluster{CostRate: 1}).Validate(); err == nil {
		t.Error("empty cluster validated")
	}
}
