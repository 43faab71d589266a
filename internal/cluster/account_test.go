package cluster_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pareto/internal/cluster"
	"pareto/internal/energy"
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

// conserved fails unless no node of res books more dirty joules than
// it drew: each node's dirty energy lies in [0, watts × busy], and the
// per-node figures sum to the dirty total.
func conserved(t *testing.T, what string, c *cluster.Cluster, res *cluster.Result) {
	t.Helper()
	var sum float64
	for i, d := range res.NodeDirty {
		drawn := c.Nodes[i].Power.Watts() * res.NodeTimes[i]
		if d < 0 || res.NodeTimes[i] < 0 || d > drawn*(1+1e-9) {
			t.Errorf("%s: node %d dirty %v busy %v, want 0 <= dirty <= drawn %v", what, i, d, res.NodeTimes[i], drawn)
		}
		sum += d
	}
	if math.Abs(sum-res.DirtyEnergy) > 1e-9*res.DirtyEnergy {
		t.Errorf("%s: Σ node dirty = %v, total %v", what, sum, res.DirtyEnergy)
	}
}

// Every path into a Result — one real batch and a two-phase sum — goes
// through Cluster.Account, so one table holds the dirty bound for both.
func TestAccountingConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, p := range []int{1, 4, 13} {
		c := randomCluster(t, rng, p)
		for _, hour := range []float64{0, 5.5, 12, 19, 30} {
			offset := hour * 3600
			label := fmt.Sprintf("p=%d offset=%vh", p, hour)
			res1, err := randomBatch(rng, p).run(c, offset)
			if err != nil {
				t.Fatal(err)
			}
			conserved(t, label+" Run", c, res1)
			res2, err := randomBatch(rng, p).run(c, offset+res1.Makespan)
			if err != nil {
				t.Fatal(err)
			}
			conserved(t, label+" two-phase", c, res1.Add(res2))
		}
	}
}

// Node order is only the summation order: permuting the nodes of a
// pinned single batch permutes the per-node figures and leaves the
// makespan alone.
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
		const offset = 11 * 3600
		base, err := tasks.run(c, offset)
		if err != nil {
			t.Fatal(err)
		}
		permuted, err := ptasks.run(pc, offset)
		if err != nil {
			t.Fatal(err)
		}
		if permuted.Makespan != base.Makespan {
			t.Errorf("p=%d: makespan %v after permuting, %v before", p, permuted.Makespan, base.Makespan)
		}
		for i, from := range perm {
			if permuted.NodeTimes[i] != base.NodeTimes[from] || permuted.NodeDirty[i] != base.NodeDirty[from] {
				t.Errorf("p=%d: node %d (was %d) time %v dirty %v, want %v and %v", p, i, from,
					permuted.NodeTimes[i], permuted.NodeDirty[i], base.NodeTimes[from], base.NodeDirty[from])
			}
		}
	}
}

// Zero or negative CostRate/Speed used to slip through SimTime as an
// unchecked division, silently propagating Inf/NaN into Makespan and
// the energy totals, and a NaN or negative wattage was booked as
// energy. Both constructors must yield Validate-clean clusters, and
// every execution entry point must reject a corrupted one loudly.
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
		c, err := cluster.PaperCluster(4, energy.DefaultPanel(), 172, 48)
		if err != nil {
			t.Fatal(err)
		}
		corrupt(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate passed", name)
		}
		if _, err := c.Run(0, [][]int{{0}, nil, nil, nil}, func(int, []int) (cluster.TaskReport, error) {
			return cluster.TaskReport{Cost: 1e6}, nil
		}); err == nil {
			t.Errorf("%s: Run accepted corrupted cluster", name)
		}
		if _, err := c.ProfileAllWithRates([]int{1, 2}, []float64{1, 1}, make([]float64, 4)); err == nil {
			t.Errorf("%s: ProfileAllWithRates accepted corrupted cluster", name)
		}
	}
	if err := (&cluster.Cluster{CostRate: 1}).Validate(); err == nil {
		t.Error("empty cluster validated")
	}
}
