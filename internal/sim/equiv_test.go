package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"pareto/internal/cluster"
	"pareto/internal/energy"
)

// referenceStealingSchedule is the closed-form greedy list scheduler
// that used to be Cluster.StealingSchedule, kept as the reference
// GreedyStealing under Run is held to: chunks are assigned in order to
// whichever node becomes free first, ties to the fastest node. It
// writes out its own service-time division and energy accounting, so
// it shares no arithmetic with cluster.ServiceTime or Cluster.Account.
func referenceStealingSchedule(c *cluster.Cluster, chunkCosts []float64, offset float64) (*cluster.Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	for i, cost := range chunkCosts {
		if cost < 0 {
			return nil, fmt.Errorf("cluster: chunk %d has negative cost", i)
		}
	}
	finish := make([]float64, len(c.Nodes))
	res := &cluster.Result{
		NodeTimes: make([]float64, len(c.Nodes)),
		NodeCosts: make([]float64, len(c.Nodes)),
		NodeDirty: make([]float64, len(c.Nodes)),
		NodeGreen: make([]float64, len(c.Nodes)),
	}
	order := make([]int, len(c.Nodes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return c.Nodes[order[a]].Speed > c.Nodes[order[b]].Speed
	})
	for _, cost := range chunkCosts {
		best := order[0]
		for _, i := range order {
			if finish[i] < finish[best] {
				best = i
			}
		}
		if cost > 0 {
			finish[best] += cost / (c.Nodes[best].Speed * c.CostRate)
		}
		res.NodeCosts[best] += cost
	}
	for i, t := range finish {
		res.NodeTimes[i] = t
		if t > res.Makespan {
			res.Makespan = t
		}
		watts := c.Nodes[i].Power.Watts()
		res.TotalEnergy += watts * t
		d := energy.DirtyEnergy(watts, c.Nodes[i].Trace, offset, t)
		res.NodeDirty[i] = d
		res.DirtyEnergy += d
		green := watts*t - d
		if green < 0 {
			green = 0
		}
		res.NodeGreen[i] = green
		res.GreenEnergy += green
	}
	return res, nil
}

// chunkFixtures are shared chunk-cost workloads: uniform chunks, a
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

// bitEq fails unless a and b are the exact same float64 (no epsilon:
// the equivalence contract is bit-identity).
func bitEq(t *testing.T, what string, a, b float64) {
	t.Helper()
	if a != b {
		t.Errorf("%s: sim %v != cluster %v (diff %g)", what, a, b, a-b)
	}
}

// The sim's greedy-stealing policy must reproduce the reference
// schedule — makespan, per-node times/costs, and all energy totals —
// bit for bit on shared chunk-cost fixtures, at several cluster sizes
// and offsets.
func TestGreedyStealingMatchesStealingScheduleBitIdentical(t *testing.T) {
	for _, p := range []int{1, 4, 8, 13} {
		c := paperCluster(t, p, 172)
		for name, costs := range chunkFixtures() {
			for _, offset := range []float64{0, 12 * 3600, 30 * 3600} {
				want, err := referenceStealingSchedule(c, costs, offset)
				if err != nil {
					t.Fatal(err)
				}
				tasks := make([]Task, len(costs))
				for i, cost := range costs {
					tasks[i] = Task{Arrival: 0, Cost: cost, Pin: -1}
				}
				got, err := Run(Config{Cluster: c, Offset: offset, Policy: &GreedyStealing{}}, tasks)
				if err != nil {
					t.Fatal(err)
				}
				label := func(s string) string { return s + " (" + name + ")" }
				bitEq(t, label("makespan"), got.Makespan, want.Makespan)
				bitEq(t, label("dirty"), got.DirtyEnergy, want.DirtyEnergy)
				bitEq(t, label("green"), got.GreenEnergy, want.GreenEnergy)
				bitEq(t, label("total"), got.TotalEnergy, want.TotalEnergy)
				for i := range want.NodeTimes {
					bitEq(t, label("node time"), got.NodeTimes[i], want.NodeTimes[i])
					bitEq(t, label("node cost"), got.NodeCosts[i], want.NodeCosts[i])
					bitEq(t, label("node dirty"), got.NodeDirty[i], want.NodeDirty[i])
					bitEq(t, label("node green"), got.NodeGreen[i], want.NodeGreen[i])
				}
			}
		}
	}
}

// A single-batch sim run — one pinned task per node, all arriving at
// t=0 — must reproduce Cluster.Run's deterministic fields bit for bit,
// including the fixed-seconds (speed-independent) component.
func TestSingleBatchMatchesRunDetailedBitIdentical(t *testing.T) {
	for _, p := range []int{1, 4, 8} {
		c := paperCluster(t, p, 172)
		rng := rand.New(rand.NewSource(int64(p)))
		reports := make([]cluster.TaskReport, p)
		for i := range reports {
			reports[i] = cluster.TaskReport{
				Cost:         rng.Float64() * 5e6,
				FixedSeconds: rng.Float64() * 2,
			}
		}
		// Leave one node idle when the cluster is big enough, mirroring
		// a plan that assigned it no data.
		parts := make([][]int, p)
		for i := range parts {
			if p > 2 && i == 2 {
				continue
			}
			parts[i] = []int{i}
		}
		detailed := func(node int, _ []int) (cluster.TaskReport, error) { return reports[node], nil }
		for _, offset := range []float64{0, 12 * 3600} {
			want, err := c.Run(offset, parts, detailed)
			if err != nil {
				t.Fatal(err)
			}
			var tasks []Task
			for i := range reports {
				if p > 2 && i == 2 {
					continue
				}
				tasks = append(tasks, Task{Arrival: 0, Cost: reports[i].Cost, Fixed: reports[i].FixedSeconds, Pin: i})
			}
			got, err := Run(Config{Cluster: c, Offset: offset}, tasks)
			if err != nil {
				t.Fatal(err)
			}
			bitEq(t, "makespan", got.Makespan, want.Makespan)
			bitEq(t, "dirty", got.DirtyEnergy, want.DirtyEnergy)
			bitEq(t, "green", got.GreenEnergy, want.GreenEnergy)
			bitEq(t, "total", got.TotalEnergy, want.TotalEnergy)
			for i := 0; i < p; i++ {
				bitEq(t, "node time", got.NodeTimes[i], want.NodeTimes[i])
				bitEq(t, "node cost", got.NodeCosts[i], want.NodeCosts[i])
				bitEq(t, "node dirty", got.NodeDirty[i], want.NodeDirty[i])
				bitEq(t, "node green", got.NodeGreen[i], want.NodeGreen[i])
			}
		}
	}
}
