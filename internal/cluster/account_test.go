package cluster_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pareto/internal/cluster"
	"pareto/internal/energy"
	"pareto/internal/sim"
)

// randomCluster is a paper-shaped cluster whose calibration, speeds
// and power draws are redrawn from rng, so the accounting is checked
// away from the four round machine types.
func randomCluster(t *testing.T, rng *rand.Rand, p int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.PaperCluster(p, energy.DefaultPanel(), 1+rng.Intn(365), 48)
	if err != nil {
		t.Fatal(err)
	}
	c.CostRate = 1e5 + rng.Float64()*2e6
	for i := range c.Nodes {
		c.Nodes[i].Speed = 0.25 + rng.Float64()*4
		c.Nodes[i].Power = energy.PowerModel{BaseWatts: rng.Float64() * 100, PerCoreWatts: rng.Float64() * 120, Cores: 1 + rng.Intn(4)}
	}
	return c
}

// batch is one job per node: node i reports reports[i] on parts[i],
// and a node whose part is empty stays idle.
type batch struct {
	parts   [][]int
	reports []cluster.TaskReport
}

func (b batch) run(c *cluster.Cluster, offset float64) (*cluster.Result, error) {
	return c.Run(offset, b.parts, func(node int, _ []int) (cluster.TaskReport, error) { return b.reports[node], nil })
}

// randomBatch draws one report per node; node 0 of a multi-node
// cluster stays idle, as under a plan that gave it no data.
func randomBatch(rng *rand.Rand, p int) batch {
	b := batch{parts: make([][]int, p), reports: make([]cluster.TaskReport, p)}
	for i := range b.parts {
		if p > 1 && i == 0 {
			continue
		}
		b.parts[i] = []int{i}
		b.reports[i] = cluster.TaskReport{Cost: rng.Float64() * 5e8, FixedSeconds: rng.Float64() * 900}
	}
	return b
}

// conserved fails unless every joule of res is booked exactly once:
// per-node green and dirty are non-negative and sum to the total draw.
func conserved(t *testing.T, what string, res *cluster.Result) {
	t.Helper()
	var sum float64
	for i := range res.NodeGreen {
		if res.NodeGreen[i] < 0 || res.NodeDirty[i] < 0 || res.NodeTimes[i] < 0 {
			t.Errorf("%s: node %d green %v dirty %v busy %v, want all >= 0", what, i, res.NodeGreen[i], res.NodeDirty[i], res.NodeTimes[i])
		}
		sum += res.NodeGreen[i] + res.NodeDirty[i]
	}
	if math.Abs(sum-res.TotalEnergy) > 1e-9*res.TotalEnergy {
		t.Errorf("%s: Σ green + Σ dirty = %v, total %v", what, sum, res.TotalEnergy)
	}
	if math.Abs(res.GreenEnergy+res.DirtyEnergy-res.TotalEnergy) > 1e-9*res.TotalEnergy {
		t.Errorf("%s: green %v + dirty %v != total %v", what, res.GreenEnergy, res.DirtyEnergy, res.TotalEnergy)
	}
}

// Every path into a Result — one real batch, a two-phase sum, and a
// simulated stream with idle gaps under each policy — goes through
// Cluster.Account, so one table holds energy conservation for all.
func TestAccountingConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, p := range []int{1, 4, 13} {
		c := randomCluster(t, rng, p)
		// Bursts and lulls at well under the cluster's capacity: nodes
		// drain between bursts, so busy spans are split by idle gaps.
		stream, err := sim.Generate(sim.GenConfig{Process: sim.Bursty, Rate: 0.02 * float64(p), Duration: 6 * 3600, CostMean: 2e6, CostSpread: 0.5, FixedSec: 1, Seed: int64(p)})
		if err != nil {
			t.Fatal(err)
		}
		for _, hour := range []float64{0, 5.5, 12, 19, 30} {
			offset := hour * 3600
			label := fmt.Sprintf("p=%d offset=%vh", p, hour)
			res1, err := randomBatch(rng, p).run(c, offset)
			if err != nil {
				t.Fatal(err)
			}
			conserved(t, label+" Run", res1)
			res2, err := randomBatch(rng, p).run(c, offset+res1.Makespan)
			if err != nil {
				t.Fatal(err)
			}
			conserved(t, label+" two-phase", res1.Add(res2))
			for _, name := range sim.PolicyNames() {
				pol, err := sim.PolicyByName(name)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.Run(sim.Config{Cluster: c, Offset: offset, Policy: pol}, stream)
				if err != nil {
					t.Fatal(err)
				}
				if res.Makespan <= res.NodeTimes[0] {
					t.Fatalf("%s %s: makespan %v within node 0's busy time %v — the stream left no idle gap", label, name, res.Makespan, res.NodeTimes[0])
				}
				conserved(t, label+" sim "+name, &res.Result)
			}
		}
	}
}

// Node order is only the summation order: permuting the nodes of a
// pinned single batch permutes the per-node figures and leaves the
// makespan alone, through Cluster.Run and through sim.Run alike.
func TestAccountingPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, p := range []int{4, 13} {
		c := randomCluster(t, rng, p)
		tasks := randomBatch(rng, p)
		perm := rng.Perm(p)
		pc := &cluster.Cluster{Nodes: make([]cluster.NodeSpec, p), CostRate: c.CostRate}
		ptasks := batch{parts: make([][]int, p), reports: make([]cluster.TaskReport, p)}
		for i, from := range perm {
			pc.Nodes[i] = c.Nodes[from]
			ptasks.parts[i], ptasks.reports[i] = tasks.parts[from], tasks.reports[from]
		}
		pinned := func(b batch) []sim.Task {
			var out []sim.Task
			for i, rep := range b.reports {
				if len(b.parts[i]) > 0 {
					out = append(out, sim.Task{Cost: rep.Cost, Fixed: rep.FixedSeconds, Pin: i})
				}
			}
			return out
		}
		const offset = 11 * 3600
		base, err := tasks.run(c, offset)
		if err != nil {
			t.Fatal(err)
		}
		permuted, err := ptasks.run(pc, offset)
		if err != nil {
			t.Fatal(err)
		}
		simPermuted, err := sim.Run(sim.Config{Cluster: pc, Offset: offset}, pinned(ptasks))
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]*cluster.Result{"Cluster.Run": permuted, "sim.Run": &simPermuted.Result} {
			if got.Makespan != base.Makespan {
				t.Errorf("p=%d %s: makespan %v after permuting, %v before", p, name, got.Makespan, base.Makespan)
			}
			for i, from := range perm {
				if got.NodeTimes[i] != base.NodeTimes[from] || got.NodeDirty[i] != base.NodeDirty[from] {
					t.Errorf("p=%d %s: node %d (was %d) time %v dirty %v, want %v and %v", p, name, i, from,
						got.NodeTimes[i], got.NodeDirty[i], base.NodeTimes[from], base.NodeDirty[from])
				}
			}
		}
	}
}
