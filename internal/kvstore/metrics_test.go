package kvstore

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"pareto/internal/telemetry"
)

// TestServerTelemetry drives immediate and pipelined traffic through an
// instrumented server and checks the registry after the connection
// goroutines drain (server Close waits, so all batched per-connection
// counters have been flushed).
func TestServerTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := NewServer(nil)
	srv.SetTelemetry(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Get("k"); err != nil {
			t.Fatal(err)
		}
	}
	// Unknown command: an error reply, still counted.
	if rep, err := c.Do("NOSUCH"); err != nil {
		t.Fatal(err)
	} else if rep.Type != ErrorReply {
		t.Fatalf("NOSUCH reply: %v", rep)
	}
	// One pipelined batch of 10 SETs.
	p, err := c.Pipe("k", 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := p.Send("SET", []byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		`kv_server_commands_total{cmd="set"}`:   11,
		`kv_server_commands_total{cmd="get"}`:   2,
		`kv_server_commands_total{cmd="other"}`: 1,
		"kv_server_command_errors_total":        1,
		"kv_server_connections_total":           1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Gauges["kv_server_connections_active"]; got != 0 {
		t.Errorf("connections_active = %v after close, want 0", got)
	}
	if snap.Counters["kv_server_bytes_in_total"] <= 0 || snap.Counters["kv_server_bytes_out_total"] <= 0 {
		t.Errorf("byte counters not populated: in=%d out=%d",
			snap.Counters["kv_server_bytes_in_total"], snap.Counters["kv_server_bytes_out_total"])
	}
	if got := snap.Histograms["kv_server_command_latency_ns"].Count; got != 14 {
		t.Errorf("latency observations = %d, want 14", got)
	}
	if got := snap.Histograms["kv_server_batch_commands"].Count; got < 5 {
		t.Errorf("batch histogram observations = %d, want ≥ 5", got)
	}
}

// TestServerParseErrorCounted feeds raw garbage at the wire level.
func TestServerParseErrorCounted(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := NewServer(nil)
	srv.SetTelemetry(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("!!not resp\r\n")); err != nil {
		t.Fatal(err)
	}
	// The server answers with an error and drops the connection.
	buf := make([]byte, 256)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	conn.Read(buf)
	conn.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("kv_server_parse_errors_total").Value(); got != 1 {
		t.Errorf("parse errors = %d, want 1", got)
	}
}

// TestServerInfoCommand: INFO returns the telemetry snapshot as JSON,
// reflecting this connection's already-flushed batches.
func TestServerInfoCommand(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := NewServer(nil)
	srv.SetTelemetry(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Do("INFO")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Type != BulkString {
		t.Fatalf("INFO reply type %v", rep.Type)
	}
	snap, err := telemetry.ReadSnapshot(bytes.NewReader(rep.Bulk))
	if err != nil {
		t.Fatalf("INFO payload not a snapshot: %v", err)
	}
	if got := snap.Counters[`kv_server_commands_total{cmd="set"}`]; got != 1 {
		t.Errorf("snapshot set count = %d, want 1", got)
	}
}

// TestServerInfoWithoutTelemetry: INFO on an uninstrumented server
// still answers with a valid (empty) snapshot instead of an error.
func TestServerInfoWithoutTelemetry(t *testing.T) {
	srv := NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep, err := c.Do("INFO")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ReadSnapshot(bytes.NewReader(rep.Bulk)); err != nil {
		t.Errorf("INFO without telemetry: %v", err)
	}
}

// TestClientTelemetry checks op counting plus the fault-path counters:
// killing the server mid-session forces a retry with a reconnect to a
// replacement server reachable through the same Dialer.
func TestClientTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv1 := NewServer(nil)
	addr1, err := srv1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	target := addr1
	dialer := func(_ string, timeout time.Duration) (net.Conn, error) {
		mu.Lock()
		a := target
		mu.Unlock()
		return net.DialTimeout("tcp", a, timeout)
	}
	c, err := DialOptions(addr1, 5*time.Second, Options{
		Telemetry:    reg,
		MaxRetries:   5,
		RetryBackoff: time.Millisecond,
		OpTimeout:    2 * time.Second,
		Dialer:       dialer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := dbsize(c); err != nil {
		t.Fatal(err)
	}
	// Kill the server; stand up a replacement and repoint the dialer.
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(nil)
	addr2, err := srv2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	mu.Lock()
	target = addr2
	mu.Unlock()
	if n, err := dbsize(c); err != nil || n != 0 {
		t.Fatalf("DBSIZE after failover = %d, %v; want 0 from the fresh store", n, err)
	}
	// Pipeline depth: 5 queued commands flushed at once.
	for i := 0; i < 5; i++ {
		if err := c.Send("DBSIZE"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.FlushInto(nil); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["kv_client_ops_total"]; got < 2 {
		t.Errorf("ops = %d, want ≥ 2", got)
	}
	if got := snap.Histograms["kv_client_op_latency_ns"].Count; got != snap.Counters["kv_client_ops_total"] {
		t.Errorf("latency observations %d != ops %d", got, snap.Counters["kv_client_ops_total"])
	}
	if got := snap.Counters["kv_client_retries_total"]; got < 1 {
		t.Errorf("retries = %d, want ≥ 1", got)
	}
	if got := snap.Counters["kv_client_reconnects_total"]; got < 1 {
		t.Errorf("reconnects = %d, want ≥ 1", got)
	}
	depth := snap.Histograms["kv_client_pipeline_depth"]
	if depth.Count != 1 || depth.Sum != 5 {
		t.Errorf("pipeline depth histogram: count=%d sum=%d, want 1/5", depth.Count, depth.Sum)
	}
}
