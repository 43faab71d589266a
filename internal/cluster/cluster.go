// Package cluster models the heterogeneous execution environment of
// paper §V-A: nodes of four types with relative speeds 4x/3x/2x/1x,
// power draws 440/345/250/155 W, and green-energy traces from four
// datacenter sites.
//
// The paper induces speed heterogeneity on a homogeneous physical
// cluster by pinning busy loops onto cores; that only scales each
// node's effective throughput. Here, workloads execute for real (the
// actual mining/compression algorithms run on the actual partitions)
// and report an abstract deterministic cost; a node's simulated
// execution time is cost / (Speed × CostRate). This preserves exactly
// the property the busy loops created — identical work takes k× longer
// on a 1/k-speed node — while making every experiment deterministic
// and machine-independent.
//
// This package owns how cost becomes seconds and joules: ServiceTime
// is the only cost→seconds expression and Account the only energy
// booking. Run executes a job on each node's partition and books it:
// every node is busy for one span from the job's start, so a node's
// timeline is [0, busy).
package cluster

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"

	"pareto/internal/energy"
	"pareto/internal/opt"
	"pareto/internal/sampling"
	"pareto/internal/telemetry"
)

// NodeSpec describes one cluster node.
type NodeSpec struct {
	// ID indexes the node within the cluster.
	ID int
	// Name is a human-readable label.
	Name string
	// Type is the paper's machine class, 1 (fastest) to 4 (slowest).
	Type int
	// Speed is the relative processing speed (type 1 → 4.0 … type 4 → 1.0).
	Speed float64
	// Power is the node's electrical draw model.
	Power energy.PowerModel
	// Location is the site whose solar trace powers the node.
	Location energy.Location
	// Trace is the node's green-energy availability.
	Trace *energy.Trace
}

// Cluster is a set of nodes plus the cost→time calibration.
type Cluster struct {
	Nodes []NodeSpec
	// CostRate is the abstract cost units a Speed-1.0 node retires per
	// second. It calibrates simulated time; experiments compare
	// strategies under the same rate, so its absolute value only sets
	// the time scale.
	CostRate float64
	// Telemetry, when non-nil, records per-run spans (a "run" span with
	// one child per node) and cumulative energy/busy-time metrics into
	// the registry. nil disables instrumentation; per-node wall times
	// are reported on Result either way.
	Telemetry *telemetry.Registry
}

// DefaultCostRate makes one million cost units ≈ one second on the
// slowest node type.
const DefaultCostRate = 1e6

// SpeedOfType maps the paper's machine types to relative speeds.
func SpeedOfType(t int) (float64, error) {
	if t < 1 || t > 4 {
		return 0, fmt.Errorf("cluster: machine type %d, want 1..4", t)
	}
	return float64(5 - t), nil
}

// PaperCluster builds a p-node cluster cycling through the four
// machine types and the four datacenter locations, with per-node solar
// traces of the given length starting at dayOfYear. This mirrors the
// §V-A testbed at any partition count.
func PaperCluster(p int, panel energy.Panel, dayOfYear, hours int) (*Cluster, error) {
	if p < 1 {
		return nil, errors.New("cluster: need at least one node")
	}
	locs := energy.GoogleDatacenterLocations()
	nodes := make([]NodeSpec, p)
	for i := 0; i < p; i++ {
		typ := i%4 + 1
		speed, err := SpeedOfType(typ)
		if err != nil {
			return nil, err
		}
		pw, err := energy.MachineType(typ)
		if err != nil {
			return nil, err
		}
		loc := locs[i%len(locs)]
		// Distinct seeds per node so same-site nodes see weather
		// variation, as co-located racks do.
		loc.CloudSeed += int64(i) * 7919
		tr, err := energy.GenerateTrace(loc, panel, dayOfYear, hours)
		if err != nil {
			return nil, fmt.Errorf("cluster: trace for node %d: %w", i, err)
		}
		nodes[i] = NodeSpec{
			ID:       i,
			Name:     fmt.Sprintf("node%02d-type%d-%s", i, typ, loc.Name),
			Type:     typ,
			Speed:    speed,
			Power:    pw,
			Location: loc,
			Trace:    tr,
		}
	}
	c := &Cluster{Nodes: nodes, CostRate: DefaultCostRate}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Validate checks the cluster's calibration: a positive finite
// CostRate, positive finite per-node speeds and a finite, non-negative
// draw per node. Run and ProfileAllWithRates validate on entry so a
// mutated or hand-built cluster fails loudly
// instead of silently propagating Inf/NaN times into Makespan, or a
// NaN or negative wattage into the energy totals Account books.
func (c *Cluster) Validate() error {
	if len(c.Nodes) == 0 {
		return errors.New("cluster: no nodes")
	}
	if !(c.CostRate > 0) || math.IsInf(c.CostRate, 1) {
		return fmt.Errorf("cluster: CostRate %v, want finite > 0", c.CostRate)
	}
	for i := range c.Nodes {
		if s := c.Nodes[i].Speed; !(s > 0) || math.IsInf(s, 1) {
			return fmt.Errorf("cluster: node %d Speed %v, want finite > 0", i, s)
		}
		if w := c.Nodes[i].Power.Watts(); !(w >= 0) || math.IsInf(w, 1) {
			return fmt.Errorf("cluster: node %d watts %v, want finite >= 0", i, w)
		}
	}
	return nil
}

// ServiceTime converts a task's demand into seconds on a node of the
// given speed: cost/(speed × costRate) for the speed-scaled work, plus
// the speed-independent fixed seconds. A non-positive cost, or a
// non-positive (or NaN) denominator, contributes zero scaled time
// rather than Inf/NaN; Validate surfaces the misconfiguration as an
// error.
func ServiceTime(speed, costRate, cost, fixed float64) float64 {
	svc := 0.0
	if cost > 0 {
		if denom := speed * costRate; denom > 0 {
			svc = cost / denom
		}
	}
	return svc + fixed
}

// SimTime converts an abstract cost into simulated seconds on node i.
func (c *Cluster) SimTime(node int, cost float64) float64 {
	return ServiceTime(c.Nodes[node].Speed, c.CostRate, cost, 0)
}

// TaskReport decomposes a task's demand: Cost scales with node speed
// (CPU work), FixedSeconds does not (I/O and other rate-limited work —
// the regime that makes the paper's LZ77 runs insensitive to CPU
// heterogeneity, Tables II/III).
type TaskReport struct {
	Cost         float64
	FixedSeconds float64
}

// Result summarizes one distributed job execution.
type Result struct {
	// NodeTimes[i] is node i's simulated busy time in seconds.
	NodeTimes []float64
	// Makespan is the job's completion time: the maximum node time, as
	// every node starts at the job's start.
	Makespan float64
	// NodeDirty[i] is node i's dirty energy in joules over its busy time.
	NodeDirty []float64
	// DirtyEnergy is the total dirty energy across nodes.
	DirtyEnergy float64
}

// Imbalance quantifies load balance: makespan divided by the mean busy
// time of the loaded nodes. 1.0 is a perfectly balanced job; larger
// values mean fast nodes idle while the bottleneck node finishes.
func (r *Result) Imbalance() float64 {
	var sum float64
	n := 0
	for _, t := range r.NodeTimes {
		if t > 0 {
			sum += t
			n++
		}
	}
	if n == 0 || sum == 0 {
		return 0
	}
	return r.Makespan / (sum / float64(n))
}

// Run executes the job on every node's partition concurrently (real
// goroutine parallelism over the real algorithms): node i runs
// job(i, parts[i]). It converts the reported demands into simulated
// times and energies: node time = cost/(speed × rate) + fixed. A node
// whose part is empty stays idle and contributes zero time and energy.
// offset is the job's start position (seconds) within the traces.
func (c *Cluster) Run(offset float64, parts [][]int, job func(node int, indices []int) (TaskReport, error)) (*Result, error) {
	if len(parts) != len(c.Nodes) {
		return nil, fmt.Errorf("cluster: %d partitions for %d nodes", len(parts), len(c.Nodes))
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	span := c.Telemetry.StartSpan("run")
	defer span.End()
	reports := make([]TaskReport, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := span.Child(c.Nodes[i].Name)
			reports[i], errs[i] = job(i, part)
			sp.End()
		}()
	}
	wg.Wait()
	// A multi-node job can fail on several nodes at once; report every
	// failure, not just the first — diagnosing a flapping cluster from
	// one error at a time is hopeless.
	if err := joinNodeErrs("task", errs); err != nil {
		return nil, err
	}
	busy := make([]float64, len(parts))
	for i, rep := range reports {
		if !finiteNonNeg(rep.Cost) || !finiteNonNeg(rep.FixedSeconds) {
			return nil, fmt.Errorf("cluster: node %d reported cost %v and fixed seconds %v, want finite >= 0", i, rep.Cost, rep.FixedSeconds)
		}
		busy[i] = ServiceTime(c.Nodes[i].Speed, c.CostRate, rep.Cost, rep.FixedSeconds)
	}
	res := c.Account(offset, busy)
	c.recordRun(res)
	return res, nil
}

func finiteNonNeg(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// Account books an executed schedule into a Result: node i was busy
// for busy[i] seconds from the job's start, so it drew power over the
// one span [offset, offset+busy[i]) of its trace. Nodes are booked in
// index order, which fixes the summation order of the dirty total. The
// result keeps busy as its NodeTimes, and its makespan is the largest
// busy time.
func (c *Cluster) Account(offset float64, busy []float64) *Result {
	res := &Result{NodeTimes: busy, NodeDirty: make([]float64, len(c.Nodes))}
	for i := range c.Nodes {
		if busy[i] > res.Makespan {
			res.Makespan = busy[i]
		}
		d := energy.DirtyEnergy(c.Nodes[i].Power.Watts(), c.Nodes[i].Trace, offset, busy[i])
		res.NodeDirty[i] = d
		res.DirtyEnergy += d
	}
	return res
}

// Add returns the result of running b after a's barrier: phase two
// starts when phase one's last node finishes, so makespans, busy
// times and energies all add.
func (a *Result) Add(b *Result) *Result {
	sum := func(x, y []float64) []float64 {
		out := make([]float64, len(x))
		for i := range x {
			out[i] = x[i] + y[i]
		}
		return out
	}
	return &Result{
		NodeTimes:   sum(a.NodeTimes, b.NodeTimes),
		Makespan:    a.Makespan + b.Makespan,
		NodeDirty:   sum(a.NodeDirty, b.NodeDirty),
		DirtyEnergy: a.DirtyEnergy + b.DirtyEnergy,
	}
}

// recordRun folds one job execution into the cumulative telemetry:
// per-node green/dirty energy (Wh) and busy seconds, plus totals. A
// node's green energy is the draw its trace covered, watts × busy less
// dirty; DirtyEnergy floors per-step surplus at zero, so that is never
// negative, and the clamp only absorbs float round-off.
func (c *Cluster) recordRun(res *Result) {
	reg := c.Telemetry
	if reg == nil {
		return
	}
	const wh = 1.0 / 3600 // joules → watt-hours
	var greenTotal float64
	for i := range c.Nodes {
		node := strconv.Itoa(i)
		green := max(0, c.Nodes[i].Power.Watts()*res.NodeTimes[i]-res.NodeDirty[i])
		greenTotal += green
		reg.FloatGauge(`energy_node_dirty_wh{node="` + node + `"}`).Add(res.NodeDirty[i] * wh)
		reg.FloatGauge(`energy_node_green_wh{node="` + node + `"}`).Add(green * wh)
		reg.FloatGauge(`cluster_node_busy_sec_total{node="` + node + `"}`).Add(res.NodeTimes[i])
	}
	reg.FloatGauge("energy_dirty_wh_total").Add(res.DirtyEnergy * wh)
	reg.FloatGauge("energy_green_wh_total").Add(greenTotal * wh)
	reg.Counter("cluster_runs_total").Inc()
}

// DirtyRates computes every node's dirty-rate constant k_i (paper
// §III-B) over [offset, offset+window) of its trace: the rates depend on
// the traces alone, not on the profiled workload.
func (c *Cluster) DirtyRates(offset, window float64) []float64 {
	rates := make([]float64, len(c.Nodes))
	for i, n := range c.Nodes {
		rates[i] = energy.DirtyRate(n.Power.Watts(), n.Trace, offset, window)
	}
	return rates
}

// ProfileAllWithRates fits every node's linear utility function (paper
// §III-A) to the progressive samples: costs[k] is the abstract cost the
// real algorithm reported on the representative sample of sizes[k],
// and node i's speed converts it into simulated seconds. The returned
// models are ready for the Pareto modeler, each paired with its node's
// dirty rate from rates (see DirtyRates).
func (c *Cluster) ProfileAllWithRates(sizes []int, costs, rates []float64) ([]opt.NodeModel, error) {
	if len(rates) != len(c.Nodes) {
		return nil, fmt.Errorf("cluster: %d dirty rates for %d nodes", len(rates), len(c.Nodes))
	}
	if len(costs) != len(sizes) {
		return nil, fmt.Errorf("cluster: %d sample costs for %d sample sizes", len(costs), len(sizes))
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	models := make([]opt.NodeModel, len(c.Nodes))
	errs := make([]error, len(c.Nodes))
	pts := make([]sampling.Point, len(sizes))
	for i := range c.Nodes {
		for k, sz := range sizes {
			pts[k] = sampling.Point{X: float64(sz), Y: c.SimTime(i, costs[k])}
		}
		fit, err := sampling.ProfileNode(pts)
		errs[i] = err
		models[i] = opt.NodeModel{Time: fit, DirtyRate: rates[i]}
	}
	if err := joinNodeErrs("profiling", errs); err != nil {
		return nil, err
	}
	return models, nil
}

// joinNodeErrs aggregates per-node failures into one error naming
// every failed node (errors.Join), nil when all succeeded.
func joinNodeErrs(what string, errs []error) error {
	var all []error
	for i, err := range errs {
		if err != nil {
			all = append(all, fmt.Errorf("cluster: %s node %d: %w", what, i, err))
		}
	}
	return errors.Join(all...)
}

// P returns the node count.
func (c *Cluster) P() int { return len(c.Nodes) }
