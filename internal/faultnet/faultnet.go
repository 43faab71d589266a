// Package faultnet injects deterministic network faults into net.Conn
// and net.Listener values: connection drops, read/write stalls, partial
// writes, and added latency. It exists so the comms stack (kvstore
// client, distributed stratification) can be tested — and hardened —
// against the failure modes real heterogeneous clusters exhibit,
// without ever touching a real flaky network.
//
// Faults are decided per I/O operation by a Plan. A Plan is either
// scripted (an explicit Action per operation, exact and replayable) or
// probabilistic (per-op rates drawn from a PRNG seeded by Plan.Seed and
// the connection id, so a given connection's fault sequence is a pure
// function of the plan). Wrap a single connection with Plan.Wrap, or a
// whole listener with Plan.Listener (hand it to kvstore.Server.Serve).
package faultnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"pareto/internal/telemetry"
)

// Action is the fault decision applied to one Read or Write.
type Action int

// The fault actions.
const (
	// Pass performs the operation untouched.
	Pass Action = iota
	// Drop closes the underlying connection and fails the operation
	// (and every later one) with ErrInjected.
	Drop
	// Stall sleeps Plan.Stall before performing the operation,
	// simulating a hung peer or congested link.
	Stall
	// Partial transmits only a prefix of a write, then closes the
	// connection — the classic torn write. On reads it acts as Drop.
	Partial
	// Delay sleeps Plan.Latency before performing the operation,
	// simulating WAN latency without breaking anything.
	Delay
)

// String names the action for diagnostics.
func (a Action) String() string {
	switch a {
	case Pass:
		return "pass"
	case Drop:
		return "drop"
	case Stall:
		return "stall"
	case Partial:
		return "partial"
	case Delay:
		return "delay"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// ErrInjected reports a fault injected by this package (as opposed to a
// genuine network failure).
var ErrInjected = errors.New("faultnet: injected fault")

// Plan scripts the faults for connections it wraps. The zero value
// injects nothing.
type Plan struct {
	// Seed drives the per-connection PRNGs; combined with the
	// connection id so each connection gets an independent but
	// reproducible fault sequence.
	Seed int64

	// Per-operation probabilities, evaluated in this order: DropRate,
	// StallRate, PartialWriteRate (writes only), DelayRate. They are
	// bands of one uniform draw, so their sum should stay ≤ 1.
	DropRate         float64
	StallRate        float64
	PartialWriteRate float64
	DelayRate        float64

	// Stall is the stall duration (0 = 50ms).
	Stall time.Duration
	// Latency is the added delay duration (0 = 1ms).
	Latency time.Duration

	// Script, when non-empty, overrides the probabilistic knobs: the
	// k-th I/O operation on a connection performs Script[k]; operations
	// past the end of the script Pass.
	Script []Action

	// DropAfterOps, when > 0, hard-kills the connection at the n-th
	// operation (0-indexed: op DropAfterOps and later Drop). It
	// applies on top of Script and the rates, simulating a peer that
	// dies partway through a protocol.
	DropAfterOps int

	// FaultConns, when > 0, limits injection to the first FaultConns
	// connections a Listener accepts; later connections pass through
	// clean. This simulates a transient outage that a reconnecting
	// client recovers from.
	FaultConns int

	// Telemetry, when non-nil, counts wrapped connections, fault
	// decisions, and injected faults by action — so the observed fault
	// mix can be checked against the configured rates. nil disables
	// instrumentation.
	Telemetry *telemetry.Registry
}

// faultMetrics is the pre-resolved counter bundle shared by every
// connection wrapped from one plan-with-registry.
type faultMetrics struct {
	conns    *telemetry.Counter
	ops      *telemetry.Counter
	injected [5]*telemetry.Counter // indexed by Action; Pass slot unused
}

func newFaultMetrics(reg *telemetry.Registry) *faultMetrics {
	if reg == nil {
		return nil
	}
	m := &faultMetrics{
		conns: reg.Counter("faultnet_conns_wrapped_total"),
		ops:   reg.Counter("faultnet_ops_total"),
	}
	for _, a := range []Action{Drop, Stall, Partial, Delay} {
		m.injected[a] = reg.Counter(`faultnet_injected_total{action="` + a.String() + `"}`)
	}
	return m
}

func (p Plan) stall() time.Duration {
	if p.Stall <= 0 {
		return 50 * time.Millisecond
	}
	return p.Stall
}

func (p Plan) latency() time.Duration {
	if p.Latency <= 0 {
		return time.Millisecond
	}
	return p.Latency
}

// Wrap returns conn with the plan's faults injected. id selects the
// connection's PRNG stream; wrapping two connections with the same id
// gives them identical fault sequences.
func (p Plan) Wrap(conn net.Conn, id int64) net.Conn {
	m := newFaultMetrics(p.Telemetry)
	if m != nil {
		m.conns.Inc()
	}
	return &faultConn{
		Conn: conn,
		plan: p,
		m:    m,
		rng:  rand.New(rand.NewSource(p.Seed ^ (id+1)*0x5851f42d4c957f2d)),
	}
}

// Listener wraps ln so every accepted connection carries the plan's
// faults, with sequential connection ids.
func (p Plan) Listener(ln net.Listener) net.Listener {
	return &faultListener{Listener: ln, wrap: p.wrapper()}
}

type faultListener struct {
	net.Listener
	wrap func(net.Conn) net.Conn
}

func (l *faultListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.wrap(conn), nil
}

// wrapper returns a function wrapping successive connections with
// sequential ids, past FaultConns of them unwrapped.
func (p Plan) wrapper() func(net.Conn) net.Conn {
	var mu sync.Mutex
	var next int64
	return func(conn net.Conn) net.Conn {
		mu.Lock()
		id := next
		next++
		mu.Unlock()
		if p.FaultConns > 0 && id >= int64(p.FaultConns) {
			return conn
		}
		return p.Wrap(conn, id)
	}
}

// faultConn is one wrapped connection. The mutex guards only the fault
// decision (op counter + PRNG); the I/O itself runs unlocked so
// concurrent Read/Write behave like the underlying conn.
type faultConn struct {
	net.Conn
	plan Plan
	m    *faultMetrics

	mu      sync.Mutex
	rng     *rand.Rand
	ops     int
	dropped bool
}

// next decides the action for the current operation and advances the
// op counter. write reports whether the operation is a Write.
func (c *faultConn) next(write bool) Action {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dropped {
		return Drop
	}
	k := c.ops
	c.ops++
	if c.plan.DropAfterOps > 0 && k >= c.plan.DropAfterOps {
		c.dropped = true
		if c.m != nil {
			c.m.ops.Inc()
			c.m.injected[Drop].Inc()
		}
		return Drop
	}
	var act Action
	if len(c.plan.Script) > 0 {
		if k < len(c.plan.Script) {
			act = c.plan.Script[k]
		}
	} else {
		r := c.rng.Float64()
		switch {
		case r < c.plan.DropRate:
			act = Drop
		case r < c.plan.DropRate+c.plan.StallRate:
			act = Stall
		case r < c.plan.DropRate+c.plan.StallRate+c.plan.PartialWriteRate:
			act = Partial
		case r < c.plan.DropRate+c.plan.StallRate+c.plan.PartialWriteRate+c.plan.DelayRate:
			act = Delay
		}
	}
	if act == Drop || (act == Partial && !write) {
		c.dropped = true
		act = Drop
	}
	if c.m != nil {
		c.m.ops.Inc()
		if act != Pass {
			c.m.injected[act].Inc()
		}
	}
	return act
}

func (c *faultConn) Read(p []byte) (int, error) {
	switch c.next(false) {
	case Drop:
		c.Conn.Close()
		return 0, fmt.Errorf("%w: connection dropped on read", ErrInjected)
	case Stall:
		time.Sleep(c.plan.stall())
	case Delay:
		time.Sleep(c.plan.latency())
	}
	return c.Conn.Read(p)
}

func (c *faultConn) Write(p []byte) (int, error) {
	switch c.next(true) {
	case Drop:
		c.Conn.Close()
		return 0, fmt.Errorf("%w: connection dropped on write", ErrInjected)
	case Stall:
		time.Sleep(c.plan.stall())
	case Partial:
		n := len(p) / 2
		if n > 0 {
			n, _ = c.Conn.Write(p[:n])
		}
		c.mu.Lock()
		c.dropped = true
		c.mu.Unlock()
		c.Conn.Close()
		return n, fmt.Errorf("%w: partial write (%d of %d bytes)", ErrInjected, n, len(p))
	case Delay:
		time.Sleep(c.plan.latency())
	}
	return c.Conn.Write(p)
}
