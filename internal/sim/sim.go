package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"pareto/internal/cluster"
	"pareto/internal/telemetry"
)

// Config parameterizes one simulation run.
type Config struct {
	// Cluster is the cluster to simulate: node speeds, power draws and
	// traces, and the cost→time calibration. When its Telemetry is
	// non-nil the run accrues sim_* counters, energy gauges and the
	// queueing-delay histogram into it.
	Cluster *cluster.Cluster
	// Offset is the run's start position (seconds) within the energy
	// traces, as in Cluster.Run.
	Offset float64
	// Policy routes unpinned tasks. It may be nil only when every task
	// is pinned.
	Policy Policy
	// RecordDecisions captures one Decision per policy-routed task on
	// the Result, for counterfactual replay and head-to-head policy
	// comparison. Costs O(tasks × nodes) memory — leave off for
	// million-task sweeps.
	RecordDecisions bool
}

// Decision is one routing choice: which node got which task, when, and
// what every node's queue looked like at that instant.
type Decision struct {
	// Seq numbers policy decisions from 0 in routing order.
	Seq uint64 `json:"seq"`
	// Time is the virtual arrival time of the routed task.
	Time float64 `json:"time"`
	// Task indexes the arrival-sorted task stream.
	Task int `json:"task"`
	// Node is the chosen destination.
	Node int `json:"node"`
	// QueueDepths[i] is node i's pending-task count just before this
	// assignment.
	QueueDepths []int `json:"queue_depths"`
}

// Result summarizes one simulation run. It is a superset of
// cluster.Result: the embedded fields keep their meanings (NodeTimes
// is per-node busy seconds, Makespan is the virtual completion time of
// the last task, energies integrate the traces over busy intervals),
// and the sim adds workload, queueing-delay, and decision-trace views.
// WallSec and NodeWallSec report real elapsed time: the whole run for
// the former, zero per node (no real per-node execution happens).
type Result struct {
	cluster.Result
	// Policy names the routing policy ("" when every task was pinned).
	Policy string
	// Tasks is the number of tasks simulated.
	Tasks int
	// Events is the number of discrete events processed (2 × Tasks:
	// one arrival, one completion each).
	Events int64
	// NodeTasks[i] is the number of tasks node i served.
	NodeTasks []int
	// Wait is the queueing-delay histogram in virtual microseconds
	// (delay = service start − arrival; power-of-two buckets). Its
	// Mean/Quantile methods give summary statistics.
	Wait telemetry.HistogramSnapshot
	// MeanWaitSec and MaxWaitSec summarize queueing delay in seconds.
	MeanWaitSec float64
	MaxWaitSec  float64
	// Decisions is the per-decision trace (nil unless
	// Config.RecordDecisions).
	Decisions []Decision
}

// waitBounds are the queueing-delay histogram bucket bounds in virtual
// microseconds: powers of two from 1 µs to 2^30 µs (≈ 18 virtual
// minutes), overflow beyond.
var waitBounds = func() []int64 {
	out := make([]int64, 31)
	for i := range out {
		out[i] = 1 << i
	}
	return out
}()

// waitHist is a tiny fixed-bucket histogram over waitBounds, kept
// local so every Result carries a snapshot without requiring a
// telemetry registry.
type waitHist struct {
	counts [32]int64 // len(waitBounds)+1, last is overflow
	sum    int64
}

func (h *waitHist) observe(us int64) {
	idx := 0
	for idx < len(waitBounds) && us > waitBounds[idx] {
		idx++
	}
	h.counts[idx]++
	h.sum += us
}

func (h *waitHist) snapshot() telemetry.HistogramSnapshot {
	s := telemetry.HistogramSnapshot{
		Bounds: waitBounds,
		Counts: append([]int64(nil), h.counts[:]...),
		Sum:    h.sum,
	}
	for _, c := range h.counts {
		s.Count += c
	}
	return s
}

// Run simulates the task stream over the configured nodes and returns
// the aggregated result. Deterministic: identical configs and
// workloads produce identical Results (modulo WallSec) and identical
// decision traces at any GOMAXPROCS — the engine is single-threaded by
// design, and the (time, seq) event order leaves nothing to scheduling
// chance.
//
// Tasks are sorted stably by arrival (ties keep input order). Each
// arrival is routed — by its Pin if ≥ 0, else by the policy — onto a
// node's FIFO queue; service starts when the node drains its backlog
// and lasts cluster.ServiceTime virtual seconds. Cluster.Account books
// each node's merged busy spans, so idle gaps (night work waiting on
// bursts, say) are charged nothing.
func Run(cfg Config, tasks []Task) (*Result, error) {
	runStart := time.Now()
	cl := cfg.Cluster
	if cl == nil {
		return nil, errors.New("sim: no cluster")
	}
	if err := cl.Validate(); err != nil {
		return nil, err
	}
	if math.IsNaN(cfg.Offset) || math.IsInf(cfg.Offset, 0) {
		return nil, fmt.Errorf("sim: offset %v, want finite", cfg.Offset)
	}
	needPolicy := false
	for i := range tasks {
		t := &tasks[i]
		if !(t.Arrival >= 0) || math.IsInf(t.Arrival, 1) {
			return nil, fmt.Errorf("sim: task %d arrival %v, want finite >= 0", i, t.Arrival)
		}
		if !(t.Cost >= 0) || math.IsInf(t.Cost, 1) {
			return nil, fmt.Errorf("sim: task %d cost %v, want finite >= 0", i, t.Cost)
		}
		if !(t.Fixed >= 0) || math.IsInf(t.Fixed, 1) {
			return nil, fmt.Errorf("sim: task %d fixed %v, want finite >= 0", i, t.Fixed)
		}
		if t.Pin >= len(cl.Nodes) {
			return nil, fmt.Errorf("sim: task %d pinned to node %d of %d", i, t.Pin, len(cl.Nodes))
		}
		if t.Pin < 0 {
			needPolicy = true
		}
	}
	if needPolicy && cfg.Policy == nil {
		return nil, errors.New("sim: unpinned tasks but no policy")
	}

	// Stable sort by arrival: equal-arrival tasks keep input order, so
	// the (time, seq) event order — and every decision downstream — is
	// a pure function of the workload.
	sorted := make([]Task, len(tasks))
	copy(sorted, tasks)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].Arrival < sorted[b].Arrival })

	states := make([]NodeState, len(cl.Nodes))
	for i := range states {
		states[i] = NodeState{ID: i, Speed: cl.Nodes[i].Speed}
	}
	policyName := ""
	if cfg.Policy != nil {
		cfg.Policy.Reset(states, cl.CostRate)
		policyName = cfg.Policy.Name()
	}

	costs := make([]float64, len(cl.Nodes))
	spans := make([][]cluster.Span, len(cl.Nodes))
	nodeTasks := make([]int, len(cl.Nodes))

	var q eventQueue
	var seq uint64
	sched := func(at float64, kind eventKind, task, node int) {
		q.push(event{at: at, seq: seq, kind: kind, task: task, node: node})
		seq++
	}
	// Arrivals enter the heap lazily — each one schedules its successor
	// — so the heap holds one arrival plus outstanding completions, not
	// the whole workload.
	if len(sorted) > 0 {
		sched(sorted[0].Arrival, evArrival, 0, -1)
	}

	waitObs := cl.Telemetry.Histogram("sim_wait_us", waitBounds)
	var wh waitHist
	var waitSum, waitMax float64
	var decisions []Decision
	var decSeq uint64
	var events int64
	for q.len() > 0 {
		e := q.pop()
		events++
		now := e.at
		if e.kind == evDone {
			states[e.node].Pending--
			continue
		}
		t := &sorted[e.task]
		if next := e.task + 1; next < len(sorted) {
			sched(sorted[next].Arrival, evArrival, next, -1)
		}
		n := t.Pin
		if n < 0 {
			n = cfg.Policy.Pick(now, *t, states)
			if n < 0 || n >= len(states) {
				return nil, fmt.Errorf("sim: policy %s picked node %d of %d", policyName, n, len(states))
			}
			if cfg.RecordDecisions {
				depths := make([]int, len(states))
				for i := range states {
					depths[i] = states[i].Pending
				}
				decisions = append(decisions, Decision{Seq: decSeq, Time: now, Task: e.task, Node: n, QueueDepths: depths})
			}
			decSeq++
		}
		st := &states[n]
		svc := cluster.ServiceTime(st.Speed, cl.CostRate, t.Cost, t.Fixed)
		begin := st.Backlog
		if begin < now {
			begin = now
		}
		fin := begin + svc
		st.Backlog = fin
		st.Pending++
		st.Busy += svc
		costs[n] += t.Cost
		nodeTasks[n]++
		// Back-to-back tasks share one busy span: begin equals the
		// previous finish exactly, so contiguous stretches merge and the
		// energy integration sees the same [start, start+busy) window a
		// batch run would.
		if sp := spans[n]; len(sp) > 0 && sp[len(sp)-1].End == begin {
			sp[len(sp)-1].End = fin
		} else {
			spans[n] = append(sp, cluster.Span{Start: begin, End: fin})
		}
		w := begin - now
		waitSum += w
		if w > waitMax {
			waitMax = w
		}
		us := int64(w * 1e6)
		wh.observe(us)
		waitObs.Observe(us)
		sched(fin, evDone, e.task, n)
	}

	busy := make([]float64, len(cl.Nodes))
	for i := range states {
		busy[i] = states[i].Busy
	}
	res := &Result{
		Result:     *cl.Account(cfg.Offset, costs, busy, spans),
		Policy:     policyName,
		Tasks:      len(sorted),
		Events:     events,
		NodeTasks:  nodeTasks,
		Wait:       wh.snapshot(),
		MaxWaitSec: waitMax,
		Decisions:  decisions,
	}
	if len(sorted) > 0 {
		res.MeanWaitSec = waitSum / float64(len(sorted))
	}
	res.WallSec = time.Since(runStart).Seconds()
	recordRun(cl.Telemetry, res, decSeq)
	return res, nil
}

// recordRun folds one simulation into the cumulative telemetry,
// mirroring cluster.recordRun's units (Wh for energy). Nil-safe.
func recordRun(reg *telemetry.Registry, res *Result, decisions uint64) {
	if reg == nil {
		return
	}
	const wh = 1.0 / 3600 // joules → watt-hours
	reg.Counter("sim_runs_total").Inc()
	reg.Counter("sim_tasks_total").Add(int64(res.Tasks))
	reg.Counter("sim_events_total").Add(res.Events)
	reg.Counter("sim_decisions_total").Add(int64(decisions))
	reg.FloatGauge("sim_virtual_sec_total").Add(res.Makespan)
	reg.FloatGauge("sim_green_wh_total").Add(res.GreenEnergy * wh)
	reg.FloatGauge("sim_dirty_wh_total").Add(res.DirtyEnergy * wh)
}
