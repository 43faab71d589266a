package sim

import (
	"fmt"
	"sort"

	"pareto/internal/cluster"
)

// NodeState is the live view of one node that policies read at each
// routing decision. The engine owns the slice and mutates it as events
// fire; policies must treat it as read-only.
type NodeState struct {
	// ID indexes the node.
	ID int
	// Speed is the node's relative processing speed.
	Speed float64
	// Pending is the number of tasks assigned but not yet completed
	// (queued + in service).
	Pending int
	// Backlog is the absolute virtual time at which the node will have
	// drained everything currently assigned to it. A node with
	// Backlog ≤ now is idle.
	Backlog float64
	// Busy is the node's accumulated service seconds so far.
	Busy float64
}

// Policy routes each arriving task to a node. Implementations must be
// deterministic functions of (now, task, nodes) and their own state —
// no randomness, no wall clock — so identical workloads replay
// identical decision traces. Pick must not mutate nodes.
type Policy interface {
	// Name identifies the policy in results and traces.
	Name() string
	// Reset prepares the policy for a fresh run over the given nodes;
	// costRate is the cluster's cost→time calibration.
	Reset(nodes []NodeState, costRate float64)
	// Pick returns the destination node index for task t arriving now.
	Pick(now float64, t Task, nodes []NodeState) int
}

// RoundRobin cycles through nodes in ID order, oblivious to load and
// speed — the baseline every other policy is measured against.
type RoundRobin struct {
	next int
}

// Name implements Policy.
func (p *RoundRobin) Name() string { return "round-robin" }

// Reset implements Policy.
func (p *RoundRobin) Reset([]NodeState, float64) { p.next = 0 }

// Pick implements Policy.
func (p *RoundRobin) Pick(_ float64, _ Task, nodes []NodeState) int {
	i := p.next % len(nodes)
	p.next++
	return i
}

// LeastLoaded routes to the node with the fewest pending tasks, ties
// to the lowest ID. Speed-oblivious: a slow node with a short queue
// beats a fast node with a long one, which is exactly the failure mode
// the weighted policies fix.
type LeastLoaded struct{}

// Name implements Policy.
func (LeastLoaded) Name() string { return "least-loaded" }

// Reset implements Policy.
func (LeastLoaded) Reset([]NodeState, float64) {}

// Pick implements Policy.
func (LeastLoaded) Pick(_ float64, _ Task, nodes []NodeState) int {
	best := 0
	for i := 1; i < len(nodes); i++ {
		if nodes[i].Pending < nodes[best].Pending {
			best = i
		}
	}
	return best
}

// WeightedScoring scores each node as a weighted sum of the time the
// task would wait behind the node's backlog and the task's service
// time on that node, and routes to the minimum — with unit weights,
// earliest-completion-time routing that accounts for heterogeneity.
// Ties go to the lowest ID.
type WeightedScoring struct {
	// WaitWeight scales the queue-wait term (backlog − now).
	WaitWeight float64
	// ServiceWeight scales the service-time term.
	ServiceWeight float64

	rate float64
}

// NewWeightedScoring builds the policy; zero-valued weights default
// to 1 so the zero config is earliest-completion-time.
func NewWeightedScoring(waitWeight, serviceWeight float64) *WeightedScoring {
	return &WeightedScoring{WaitWeight: waitWeight, ServiceWeight: serviceWeight}
}

// Name implements Policy.
func (p *WeightedScoring) Name() string { return "weighted-scoring" }

// Reset implements Policy.
func (p *WeightedScoring) Reset(_ []NodeState, costRate float64) {
	p.rate = costRate
	if p.WaitWeight == 0 && p.ServiceWeight == 0 {
		p.WaitWeight, p.ServiceWeight = 1, 1
	}
}

// Pick implements Policy.
func (p *WeightedScoring) Pick(now float64, t Task, nodes []NodeState) int {
	best := 0
	bestScore := p.score(now, t, &nodes[0])
	for i := 1; i < len(nodes); i++ {
		if s := p.score(now, t, &nodes[i]); s < bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

func (p *WeightedScoring) score(now float64, t Task, n *NodeState) float64 {
	wait := n.Backlog - now
	if wait < 0 {
		wait = 0
	}
	return p.WaitWeight*wait + p.ServiceWeight*cluster.ServiceTime(n.Speed, p.rate, t.Cost, t.Fixed)
}

// GreedyStealing simulates an idealized work-stealing execution (paper
// §I's strawman): the job is pre-split into many chunks, and whenever
// a node goes idle it grabs the next unprocessed chunk — classical
// greedy list scheduling. Each task goes to the node that will be free
// of its assigned work soonest, ties to the fastest node (who wins the
// race for the queue in a real stealing runtime).
//
// Work stealing balances *sizes* perfectly as chunk granularity grows —
// but it is payload-oblivious: for analytics workloads the per-chunk
// costs themselves inflate when content is fragmented arbitrarily
// (e.g. candidate-pattern explosion in partitioned frequent pattern
// mining), which is exactly the effect the paper's stratified
// partitioning avoids. internal/bench's stealing_test.go pairs this
// policy with real workload chunk costs to reproduce that comparison
// (BenchmarkAblationWorkStealing).
type GreedyStealing struct {
	// order visits nodes fastest-first (stable by speed).
	order []int
}

// Name implements Policy.
func (p *GreedyStealing) Name() string { return "greedy-stealing" }

// Reset implements Policy.
func (p *GreedyStealing) Reset(nodes []NodeState, _ float64) {
	p.order = make([]int, len(nodes))
	for i := range p.order {
		p.order[i] = i
	}
	sort.SliceStable(p.order, func(a, b int) bool {
		return nodes[p.order[a]].Speed > nodes[p.order[b]].Speed
	})
}

// Pick implements Policy.
func (p *GreedyStealing) Pick(_ float64, _ Task, nodes []NodeState) int {
	best := p.order[0]
	for _, i := range p.order {
		if nodes[i].Backlog < nodes[best].Backlog {
			best = i
		}
	}
	return best
}

// PolicyNames lists the built-in policy names accepted by
// PolicyByName, in presentation order.
func PolicyNames() []string {
	return []string{"round-robin", "least-loaded", "weighted-scoring", "greedy-stealing"}
}

// PolicyByName builds a fresh built-in policy from its name.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "round-robin":
		return &RoundRobin{}, nil
	case "least-loaded":
		return LeastLoaded{}, nil
	case "weighted-scoring":
		return NewWeightedScoring(1, 1), nil
	case "greedy-stealing":
		return &GreedyStealing{}, nil
	}
	return nil, fmt.Errorf("sim: unknown policy %q (want one of %v)", name, PolicyNames())
}
