package kvstore_test

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"pareto/internal/faultnet"
	"pareto/internal/kvstore"
)

// startFaultyStore runs a server whose accepted connections carry the
// fault plan, with key "k" pre-seeded to "v" directly in the engine (no
// client connection is spent on setup, so connection ids are the
// client's own).
func startFaultyStore(t *testing.T, plan faultnet.Plan) string {
	t.Helper()
	srv := kvstore.NewServer(nil)
	if rep := srv.Engine().Do("SET", []byte("k"), []byte("v")); rep.Err() != nil {
		t.Fatal(rep.Err())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(plan.Listener(ln)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

func retryOpts() kvstore.Options {
	return kvstore.Options{
		OpTimeout:    200 * time.Millisecond,
		MaxRetries:   4,
		RetryBackoff: time.Millisecond,
		MaxBackoff:   10 * time.Millisecond,
	}
}

// TestClientSurvivesMisbehavingStore drives idempotent commands
// against servers that close abruptly, truncate replies, or stall;
// with only the first connection faulted, the retry+reconnect path
// must converge to the correct answer.
func TestClientSurvivesMisbehavingStore(t *testing.T) {
	cases := []struct {
		name string
		plan faultnet.Plan
	}{
		{"abrupt close on request", faultnet.Plan{
			Script: []faultnet.Action{faultnet.Drop}, FaultConns: 1}},
		{"abrupt close before reply", faultnet.Plan{
			Script: []faultnet.Action{faultnet.Pass, faultnet.Drop}, FaultConns: 1}},
		{"partial reply", faultnet.Plan{
			Script: []faultnet.Action{faultnet.Pass, faultnet.Partial}, FaultConns: 1}},
		{"stalled server", faultnet.Plan{
			Script: []faultnet.Action{faultnet.Pass, faultnet.Stall},
			Stall:  time.Second, FaultConns: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := startFaultyStore(t, tc.plan)
			c, err := kvstore.DialOptions(addr, time.Second, retryOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			got, err := c.Get("k")
			if err != nil {
				t.Fatalf("Get through faults: %v", err)
			}
			if string(got) != "v" {
				t.Fatalf("Get = %q, want \"v\"", got)
			}
			// The healed connection keeps working.
			if err := c.Set("k2", []byte("w")); err != nil {
				t.Fatalf("Set after recovery: %v", err)
			}
			if err := c.Ping(); err != nil {
				t.Fatalf("Ping after recovery: %v", err)
			}
		})
	}
}

// TestNonIdempotentNotRetried proves INCR is never silently re-sent:
// a connection failure surfaces ErrNotRetryable so the caller decides.
func TestNonIdempotentNotRetried(t *testing.T) {
	addr := startFaultyStore(t, faultnet.Plan{
		Script: []faultnet.Action{faultnet.Pass, faultnet.Drop}, FaultConns: 1})
	c, err := kvstore.DialOptions(addr, time.Second, retryOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Incr("ctr"); !errors.Is(err, kvstore.ErrNotRetryable) {
		t.Fatalf("Incr on dropped conn: got %v, want ErrNotRetryable", err)
	}
	// The client itself recovers for the next idempotent command.
	if _, err := c.Get("k"); err != nil {
		t.Fatalf("Get after failed Incr: %v", err)
	}
}

// TestHungServerOpsBounded proves every client operation returns
// within 2×OpTimeout (one write deadline + one read deadline) when the
// server accepts but never answers, instead of blocking forever.
func TestHungServerOpsBounded(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold open, never reply
		}
	}()
	const opTimeout = 150 * time.Millisecond
	c, err := kvstore.DialOptions(ln.Addr().String(), time.Second,
		kvstore.Options{OpTimeout: opTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ops := map[string]func() error{
		"GET":    func() error { _, err := c.Get("k"); return err },
		"SET":    func() error { return c.Set("k", []byte("v")) },
		"INCR":   func() error { _, err := c.Incr("k"); return err },
		"RPUSH":  func() error { _, err := c.RPush("l", []byte("v")); return err },
		"LLEN":   func() error { _, err := c.LLen("l"); return err },
		"LRANGE": func() error { _, err := c.LRange("l", 0, -1); return err },
		"DEL":    func() error { _, err := c.Del("k"); return err },
		"PING":   func() error { return c.Ping() },
	}
	for name, op := range ops {
		start := time.Now()
		err := op()
		elapsed := time.Since(start)
		if err == nil {
			t.Fatalf("%s against hung server succeeded", name)
		}
		if elapsed > 2*opTimeout {
			t.Fatalf("%s took %v, want ≤ 2×OpTimeout = %v", name, elapsed, 2*opTimeout)
		}
	}
}

// TestDoPreservesPipelinedReplies: replies drained by a Do issued
// while a pipeline is in flight must reach the pipeline's Finish
// instead of vanishing.
func TestDoPreservesPipelinedReplies(t *testing.T) {
	srv := kvstore.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if rep := srv.Engine().Do("SET", []byte("other"), []byte("42")); rep.Err() != nil {
		t.Fatal(rep.Err())
	}
	c, err := kvstore.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	p, err := c.NewPipeline(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send("SET", []byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := p.Send("GET", []byte("a")); err != nil {
		t.Fatal(err)
	}
	// An interleaved immediate command must not corrupt the pipeline.
	got, err := c.Get("other")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "42" {
		t.Fatalf("interleaved Get = %q, want \"42\"", got)
	}
	reps, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Fatalf("pipeline returned %d replies, want 2", len(reps))
	}
	if reps[0].Err() != nil || reps[0].Str != "OK" {
		t.Errorf("SET reply = %v", reps[0])
	}
	if string(reps[1].Bulk) != "1" {
		t.Errorf("GET reply = %q, want \"1\"", reps[1].Bulk)
	}
}

// TestBarrierAbort: aborting a barrier releases a blocked waiter
// promptly with ErrBarrierAborted, and the abort is sticky.
func TestBarrierAbort(t *testing.T) {
	srv := kvstore.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dial := func() *kvstore.Client {
		c, err := kvstore.Dial(addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	waiter, aborter := dial(), dial()
	bw, err := kvstore.NewBarrier(waiter, "ab", 2)
	if err != nil {
		t.Fatal(err)
	}
	bw.Timeout = 10 * time.Second
	ba, err := kvstore.NewBarrier(aborter, "ab", 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- bw.Await() }()
	time.Sleep(20 * time.Millisecond) // let the waiter block
	if err := ba.Abort("node down"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, kvstore.ErrBarrierAborted) {
			t.Fatalf("Await after abort: got %v, want ErrBarrierAborted", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("abort did not release the waiter")
	}
	// Sticky: a later Await on the same name aborts immediately.
	if err := bw.Await(); !errors.Is(err, kvstore.ErrBarrierAborted) {
		t.Fatalf("second Await: got %v, want ErrBarrierAborted", err)
	}
}

// TestSendArmsDeadline: a pipelined command larger than the 64 KiB
// write buffer is written through by Send itself, so Send must arm the
// per-operation deadline — otherwise the write runs under the previous
// operation's deadline, long expired after any pause.
func TestSendArmsDeadline(t *testing.T) {
	srv := kvstore.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const opTimeout = 50 * time.Millisecond
	c, err := kvstore.DialOptions(addr, time.Second, kvstore.Options{OpTimeout: opTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(opTimeout + 70*time.Millisecond) // the Ping's deadline is now in the past
	p, err := c.NewPipeline(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send("RPUSH", []byte("big"), make([]byte, 256<<10)); err != nil {
		t.Fatalf("Send of a command larger than the write buffer after an idle pause: %v", err)
	}
	reps, err := p.Finish()
	if err != nil || len(reps) != 1 || reps[0].Int != 1 {
		t.Fatalf("Finish = %v, %v; want one reply of 1", reps, err)
	}
}

// countingDialer counts the connections a client opens.
func countingDialer(dials *atomic.Int64) func(string, time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		dials.Add(1)
		return net.DialTimeout("tcp", addr, timeout)
	}
}

// TestClosedClientStaysClosed: with retries on, a command after Close
// used to re-dial and succeed, so a command racing ClusterClient.Close
// leaked a connection. A closed client — dialed directly or pooled by a
// cluster client — answers ErrClientClosed and dials nothing.
func TestClosedClientStaysClosed(t *testing.T) {
	srv := kvstore.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.SetClusterSlots(addr, kvstore.SplitSlots([]string{addr})); err != nil {
		t.Fatal(err)
	}
	var dials atomic.Int64
	opts := retryOpts()
	opts.Dialer = countingDialer(&dials)

	c, err := kvstore.DialOptions(addr, time.Second, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	before := dials.Load()
	closedOps := map[string]func() error{
		"Get":       func() error { _, err := c.Get("k"); return err },
		"Incr":      func() error { _, err := c.Incr("n"); return err },
		"Del":       func() error { _, err := c.Del("k"); return err },
		"Ping":      c.Ping,
		"Send":      func() error { return c.Send("GET", []byte("k")) },
		"FlushInto": func() error { _, err := c.FlushInto(nil); return err },
	}
	for name, op := range closedOps {
		if err := op(); !errors.Is(err, kvstore.ErrClientClosed) {
			t.Errorf("%s on a closed Client: %v, want ErrClientClosed", name, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if got := dials.Load(); got != before {
		t.Errorf("closed Client dialed %d more connection(s)", got-before)
	}

	cc, err := kvstore.DialCluster([]string{addr}, time.Second, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := cc.Get("k"); err != nil || string(got) != "v" {
		t.Fatalf("cluster Get = %q, %v", got, err)
	}
	// A pipeline created before Close still holds the pooled connection
	// — the command racing Close.
	p, err := cc.Pipe(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send("GET", []byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := cc.Close(); err != nil {
		t.Fatal(err)
	}
	before = dials.Load()
	if err := p.Send("GET", []byte("k")); !errors.Is(err, kvstore.ErrClientClosed) {
		t.Errorf("Send on a pooled connection after ClusterClient.Close: %v, want ErrClientClosed", err)
	}
	pooledOps := map[string]func() error{
		"Get":  func() error { _, err := cc.Get("k"); return err },
		"Del":  func() error { _, err := cc.Del("k"); return err },
		"Ping": cc.Ping,
		"Pipe": func() error {
			p, err := cc.Pipe(4)
			if err != nil {
				return err
			}
			return p.Send("GET", []byte("k"))
		},
	}
	for name, op := range pooledOps {
		if err := op(); !errors.Is(err, kvstore.ErrClientClosed) {
			t.Errorf("%s after ClusterClient.Close: %v, want ErrClientClosed", name, err)
		}
	}
	if got := dials.Load(); got != before {
		t.Errorf("closed ClusterClient dialed %d more connection(s)", got-before)
	}
}
