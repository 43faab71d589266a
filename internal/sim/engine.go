// Package sim is the framework's only virtual-time scheduler: a
// deterministic discrete-event simulator of a cluster.Cluster with a
// shared virtual clock, a binary-heap event queue ordered by
// (time, seq), seeded arrival-process workload generators plus
// recorded-trace replay, and pluggable scheduling policies with
// optional per-decision traces.
//
// Where internal/cluster executes one real goroutine per node and a
// single batch of tasks, sim advances a virtual clock over millions of
// events in a fraction of a second, so cluster-sizing and green-energy
// what-if studies (thousands of heterogeneous nodes, diurnal solar
// windows, arrival bursts) become cheap. The execution model itself
// lives in internal/cluster and sim only calls it: a task's service
// time is cluster.ServiceTime, and green/dirty energy is booked by
// Cluster.Account over the node's virtual busy spans. So a
// single-batch sim run reproduces Cluster.Run bit-for-bit, and
// the greedy-stealing policy reproduces the closed-form list schedule
// the equivalence tests keep as their reference.
package sim

// eventKind discriminates the two event types in the engine.
type eventKind uint8

const (
	// evArrival: a task enters the system and is routed to a node.
	evArrival eventKind = iota
	// evDone: a task finishes service on its node.
	evDone
)

// event is one scheduled occurrence on the virtual timeline.
type event struct {
	// at is the virtual time in seconds.
	at float64
	// seq is the schedule order, breaking timestamp ties.
	seq uint64
	// kind selects arrival vs completion handling.
	kind eventKind
	// task indexes the sorted task slice.
	task int
	// node is the serving node for evDone (unused for arrivals).
	node int
}

// before reports whether e fires before o: earlier virtual time first,
// equal timestamps resolved by schedule order. (at, seq) is a strict
// total order — no two distinct events compare equal — which is the
// invariant that makes runs reproducible: heap insertion order cannot
// leak into pop order, so the same workload always replays the same
// event sequence regardless of how the heap happened to be built.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a binary min-heap of events ordered by before. It is a
// hand-rolled slice heap rather than container/heap: the interface
// dispatch and boxing of the stdlib heap cost real throughput on a
// loop that must sustain over a million events per second.
type eventQueue struct {
	ev []event
}

func (q *eventQueue) len() int { return len(q.ev) }

// push inserts an event, sifting it up to its heap position.
func (q *eventQueue) push(e event) {
	q.ev = append(q.ev, e)
	i := len(q.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.ev[i].before(q.ev[parent]) {
			break
		}
		q.ev[i], q.ev[parent] = q.ev[parent], q.ev[i]
		i = parent
	}
}

// pop removes and returns the earliest event. The queue must be
// non-empty.
func (q *eventQueue) pop() event {
	top := q.ev[0]
	last := len(q.ev) - 1
	q.ev[0] = q.ev[last]
	q.ev = q.ev[:last]
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		child := l
		if r := l + 1; r < last && q.ev[r].before(q.ev[l]) {
			child = r
		}
		if !q.ev[child].before(q.ev[i]) {
			break
		}
		q.ev[i], q.ev[child] = q.ev[child], q.ev[i]
		i = child
	}
	return top
}
