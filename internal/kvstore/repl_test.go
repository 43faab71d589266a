package kvstore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pareto/internal/faultnet"
	"pareto/internal/telemetry"
)

// waitFor polls cond every millisecond until it holds or the deadline
// expires; replication is asynchronous, so almost every assertion in
// this file is an eventually-assertion.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func counterOf(reg *telemetry.Registry, name string) int64 {
	return reg.Snapshot().Counters[name]
}

func gaugeOf(reg *telemetry.Registry, name string) float64 {
	return reg.Snapshot().Gauges[name]
}

// startReplPrimary stands up an AOF-enabled server with fast feeder
// cadence — the shape every replication test's primary needs.
func startReplPrimary(t *testing.T) (*Server, string, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	srv := NewServer(nil)
	srv.SetTelemetry(reg)
	srv.SetReplication(ReplicationConfig{PingEvery: 10 * time.Millisecond, Poll: time.Millisecond})
	if err := srv.EnableAOF(filepath.Join(t.TempDir(), "primary.aof"), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr, reg
}

// startReplReplica stands up an AOF-enabled server and points it at the
// primary with test-speed reconnect behavior.
func startReplReplica(t *testing.T, primary string, opts ReplicaOptions) (*Server, string, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	srv := NewServer(nil)
	srv.SetTelemetry(reg)
	if err := srv.EnableAOF(filepath.Join(t.TempDir(), "replica.aof"), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if opts.StreamTimeout == 0 {
		opts.StreamTimeout = 500 * time.Millisecond
	}
	if opts.RetryBackoff == 0 {
		opts.RetryBackoff = 5 * time.Millisecond
	}
	if opts.MaxBackoff == 0 {
		opts.MaxBackoff = 50 * time.Millisecond
	}
	if err := srv.StartReplicaOf(primary, opts); err != nil {
		t.Fatal(err)
	}
	return srv, addr, reg
}

// hasKeys reports whether srv's engine holds k0..k(n-1) with values
// v0..v(n-1).
func hasKeys(srv *Server, n int) bool {
	for i := 0; i < n; i++ {
		rep := srv.Engine().Do("GET", []byte(fmt.Sprintf("k%d", i)))
		if rep.Type != BulkString || string(rep.Bulk) != fmt.Sprintf("v%d", i) {
			return false
		}
	}
	return true
}

func setKeys(t *testing.T, c *Client, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if err := c.Set(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Set k%d: %v", i, err)
		}
	}
}

// liveReplicaConn snapshots the replica session's current stream
// connection (nil while disconnected).
func liveReplicaConn(srv *Server) net.Conn {
	srv.mu.Lock()
	rs := srv.replica
	srv.mu.Unlock()
	if rs == nil {
		return nil
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if !rs.connected {
		return nil
	}
	return rs.conn
}

// TestReplicationFullSyncAndLiveStream is the basic happy path: a
// replica bootstraps from a full-sync snapshot, then applies the live
// stream, and both sides report coherent REPLINFO.
func TestReplicationFullSyncAndLiveStream(t *testing.T) {
	primary, paddr, preg := startReplPrimary(t)
	c, err := Dial(paddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	setKeys(t, c, 0, 20) // pre-existing data: arrives via the snapshot

	replica, _, rreg := startReplReplica(t, paddr, ReplicaOptions{SelfAddr: "replica-1"})
	waitFor(t, 5*time.Second, "full sync to land", func() bool { return hasKeys(replica, 20) })
	if n := counterOf(preg, "kv_repl_full_syncs_total"); n != 1 {
		t.Errorf("kv_repl_full_syncs_total = %d, want 1", n)
	}

	setKeys(t, c, 20, 40) // live data: arrives via the stream
	waitFor(t, 5*time.Second, "live stream to apply", func() bool { return hasKeys(replica, 40) })
	if n := counterOf(rreg, "kv_repl_applied_records_total"); n < 20 {
		t.Errorf("kv_repl_applied_records_total = %d, want ≥ 20", n)
	}
	waitFor(t, 5*time.Second, "lag to drain to zero", func() bool {
		return gaugeOf(rreg, "kv_repl_lag_bytes") == 0 && gaugeOf(rreg, "kv_repl_error") == 0
	})

	// Primary REPLINFO: role, durable offset, and the connected replica
	// (with its acks caught up to what was sent).
	rep, err := c.Do("REPLINFO")
	if err != nil || rep.Type != BulkString {
		t.Fatalf("REPLINFO = %v, %v", rep.Type, err)
	}
	var pi replInfo
	if err := json.Unmarshal(rep.Bulk, &pi); err != nil {
		t.Fatal(err)
	}
	if pi.Role != "primary" || len(pi.Replicas) != 1 || pi.Replicas[0].Addr != "replica-1" {
		t.Fatalf("primary REPLINFO = %+v", pi)
	}
	waitFor(t, 5*time.Second, "replica acks to catch up", func() bool {
		infos := primary.hub.snapshotInfo()
		return len(infos) == 1 && infos[0].AckedOff == infos[0].SentOff && infos[0].SentOff > int64(aofHeaderLen)
	})

	// Replica REPLINFO: role, primary address, liveness.
	rrep := replica.replInfoReply()
	var ri replInfo
	if err := json.Unmarshal(rrep.Bulk, &ri); err != nil {
		t.Fatal(err)
	}
	if ri.Role != "replica" || ri.Primary != paddr || !ri.Connected || ri.Offset <= int64(aofHeaderLen) {
		t.Fatalf("replica REPLINFO = %+v", ri)
	}
}

// TestReplicationPartialResync proves a dropped stream resumes exactly
// at the cursor — a CONTINUE handshake, not a second snapshot.
func TestReplicationPartialResync(t *testing.T) {
	_, paddr, preg := startReplPrimary(t)
	c, err := Dial(paddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	setKeys(t, c, 0, 10)

	replica, _, rreg := startReplReplica(t, paddr, ReplicaOptions{})
	waitFor(t, 5*time.Second, "initial sync", func() bool { return hasKeys(replica, 10) })

	// Tear the live stream mid-flight; the replica's cursor names a
	// position inside the current generation, so the reconnect must
	// CONTINUE rather than re-bootstrap.
	waitFor(t, 5*time.Second, "stream to connect", func() bool { return liveReplicaConn(replica) != nil })
	liveReplicaConn(replica).Close()

	setKeys(t, c, 10, 20)
	waitFor(t, 5*time.Second, "resynced stream to catch up", func() bool { return hasKeys(replica, 20) })
	waitFor(t, 5*time.Second, "partial sync counter", func() bool {
		return counterOf(preg, "kv_repl_partial_syncs_total") >= 1
	})
	if n := counterOf(preg, "kv_repl_full_syncs_total"); n != 1 {
		t.Errorf("full syncs = %d after reconnect, want 1 (partial resync should not snapshot)", n)
	}
	if n := counterOf(rreg, "kv_repl_reconnects_total"); n < 1 {
		t.Errorf("kv_repl_reconnects_total = %d, want ≥ 1", n)
	}
}

// TestReplicaRejectsWrites: replicas serve reads and refuse writes, so
// clients cannot diverge a replica from its primary.
func TestReplicaRejectsWrites(t *testing.T) {
	_, paddr, _ := startReplPrimary(t)
	c, err := Dial(paddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	setKeys(t, c, 0, 1)

	replica, raddr, _ := startReplReplica(t, paddr, ReplicaOptions{})
	waitFor(t, 5*time.Second, "sync", func() bool { return hasKeys(replica, 1) })

	rc, err := Dial(raddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if got, err := rc.Get("k0"); err != nil || string(got) != "v0" {
		t.Fatalf("replica Get = %q, %v", got, err)
	}
	rep, err := rc.Do("SET", []byte("rogue"), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Type != ErrorReply || !strings.HasPrefix(rep.Str, "READONLY") {
		t.Fatalf("replica SET reply = %v %q, want READONLY error", rep.Type, rep.Str)
	}
	if got := replica.Engine().Do("GET", []byte("rogue")); got.Type != NullBulk {
		t.Fatal("rejected write still landed in the replica engine")
	}
}

// TestReplicaOfCommand drives the whole role lifecycle over the wire:
// REPLICAOF <addr> demotes a primary into a replica, REPLICAOF NO ONE
// promotes it back, and writes are accepted exactly when primary.
func TestReplicaOfCommand(t *testing.T) {
	_, paddr, _ := startReplPrimary(t)
	pc, err := Dial(paddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	setKeys(t, pc, 0, 5)

	other := NewServer(nil)
	oaddr, err := other.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { other.Close() })
	oc, err := Dial(oaddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer oc.Close()

	if rep, err := oc.Do("REPLICAOF", []byte(paddr)); err != nil || rep.Err() != nil {
		t.Fatalf("REPLICAOF: %v / %v", err, rep.Err())
	}
	waitFor(t, 5*time.Second, "demoted server to sync", func() bool { return hasKeys(other, 5) })
	if rep, _ := oc.Do("SET", []byte("x"), []byte("y")); rep.Type != ErrorReply {
		t.Fatal("replica accepted a write")
	}
	if rep, err := oc.Do("REPLICAOF", []byte("NO"), []byte("ONE")); err != nil || rep.Err() != nil {
		t.Fatalf("REPLICAOF NO ONE: %v / %v", err, rep.Err())
	}
	if err := oc.Set("x", []byte("y")); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
	// Re-demoting a promoted server must work (the session slot is free).
	if rep, err := oc.Do("REPLICAOF", []byte(paddr)); err != nil || rep.Err() != nil {
		t.Fatalf("second REPLICAOF: %v / %v", err, rep.Err())
	}
}

// TestReplStreamEveryPrefixTruncation mirrors
// TestAOFTornTailTruncatedOnRestart for the wire: the stream decoder is
// fed every byte prefix of a record+heartbeat stream, and at every cut
// the cursor must land exactly on the boundary of the last complete
// data record, with exactly the complete records applied and exactly
// the complete heartbeats delivered. A torn stream therefore always
// resumes with nothing skipped and nothing double-applied.
func TestReplStreamEveryPrefixTruncation(t *testing.T) {
	type sframe struct {
		b   []byte
		rec bool
	}
	frame := func(cmd string, args ...[]byte) sframe {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := WriteCommand(bw, cmd, args...); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		return sframe{b: buf.Bytes(), rec: true}
	}
	ping := func(durOff int64) sframe {
		s := fmt.Sprintf("%d", durOff)
		return sframe{b: []byte(fmt.Sprintf("*2\r\n$8\r\nREPLPING\r\n$%d\r\n%s\r\n", len(s), s))}
	}
	frames := []sframe{
		frame("SET", []byte("a"), []byte("1")),
		frame("SET", []byte("key:with:longer:name"), []byte(strings.Repeat("x", 300))),
		ping(1234),
		frame("RPUSH", []byte("l"), []byte("e1"), []byte("e2"), []byte("e3")),
		frame("SET", []byte("empty"), nil),
		ping(99999),
		frame("DEL", []byte("a")),
		frame("INCR", []byte("ctr")),
	}
	var stream []byte
	for _, f := range frames {
		stream = append(stream, f.b...)
	}

	const start = int64(7777)
	for cut := 0; cut <= len(stream); cut++ {
		applied, pings := 0, 0
		cr := &countingReader{r: bytes.NewReader(stream[:cut])}
		br := bufio.NewReaderSize(cr, 64<<10)
		off, err := replApply(cr, br, start, replStreamHandler{
			apply: func(id cmdID, cmd string, args [][]byte) error {
				if id == cmdReplPing {
					t.Fatalf("cut=%d: heartbeat reached the apply hook", cut)
				}
				applied++
				return nil
			},
			ping: func(int64) { pings++ },
		})
		if err == nil {
			t.Fatalf("cut=%d: replApply returned nil error on a finite stream", cut)
		}
		expOff, expApplied, expPings, consumed := start, 0, 0, 0
		for _, f := range frames {
			if consumed+len(f.b) > cut {
				break
			}
			consumed += len(f.b)
			if f.rec {
				expApplied++
				expOff += int64(len(f.b))
			} else {
				expPings++
			}
		}
		if off != expOff {
			t.Fatalf("cut=%d: cursor = %d, want %d (record boundary)", cut, off, expOff)
		}
		if applied != expApplied || pings != expPings {
			t.Fatalf("cut=%d: applied %d pings %d, want %d / %d", cut, applied, pings, expApplied, expPings)
		}
	}
}

// TestSemiSyncAckGate: with MinAckReplicas set, a write is acked only
// once a replica has applied it — and fails the writing connection when
// no replica can.
func TestSemiSyncAckGate(t *testing.T) {
	t.Run("timeout without replica", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		srv := NewServer(nil)
		srv.SetTelemetry(reg)
		srv.SetReplication(ReplicationConfig{MinAckReplicas: 1, AckTimeout: 100 * time.Millisecond})
		if err := srv.EnableAOF(filepath.Join(t.TempDir(), "p.aof"), time.Millisecond); err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		c, err := DialOptions(addr, time.Second, Options{OpTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Set("k", []byte("v")); err == nil {
			t.Fatal("semi-sync write acked with zero replicas connected")
		}
		if n := counterOf(reg, "kv_repl_ack_timeouts_total"); n < 1 {
			t.Errorf("kv_repl_ack_timeouts_total = %d, want ≥ 1", n)
		}
	})
	t.Run("acks flow with replica", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		srv := NewServer(nil)
		srv.SetTelemetry(reg)
		srv.SetReplication(ReplicationConfig{MinAckReplicas: 1, PingEvery: 10 * time.Millisecond, Poll: time.Millisecond})
		if err := srv.EnableAOF(filepath.Join(t.TempDir(), "p.aof"), time.Millisecond); err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		replica, _, _ := startReplReplica(t, addr, ReplicaOptions{SelfAddr: "r"})
		waitFor(t, 5*time.Second, "replica to register", func() bool {
			return len(srv.hub.addrs()) == 1
		})
		c, err := DialOptions(addr, time.Second, Options{OpTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		setKeys(t, c, 0, 10)
		// The semi-sync contract: by the time Set returned, the replica
		// has the data — no waitFor needed.
		if !hasKeys(replica, 10) {
			t.Fatal("write acked before the replica applied it")
		}
	})
}

// TestReplTakeoverPromotesAndServesSlots is single-failover in
// miniature: one primary owning every slot, one replica; kill the
// primary, REPLTAKEOVER the replica, and the replica must own the
// slots, accept writes, and still hold every replicated key.
func TestReplTakeoverPromotesAndServesSlots(t *testing.T) {
	primary, paddr, _ := startReplPrimary(t)
	if err := primary.SetClusterSlots(paddr, []SlotRange{{Lo: 0, Hi: NumSlots - 1, Addr: paddr}}); err != nil {
		t.Fatal(err)
	}

	rreg := telemetry.NewRegistry()
	replica := NewServer(nil)
	replica.SetTelemetry(rreg)
	if err := replica.EnableAOF(filepath.Join(t.TempDir(), "r.aof"), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	raddr, err := replica.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { replica.Close() })
	if err := replica.SetClusterSlots(raddr, []SlotRange{{Lo: 0, Hi: NumSlots - 1, Addr: paddr}}); err != nil {
		t.Fatal(err)
	}
	if err := replica.StartReplicaOf(paddr, ReplicaOptions{
		SelfAddr: raddr, StreamTimeout: 500 * time.Millisecond,
		RetryBackoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}

	pc, err := Dial(paddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	setKeys(t, pc, 0, 10)
	waitFor(t, 5*time.Second, "replica sync", func() bool { return hasKeys(replica, 10) })

	// The primary advertises its replica after the owner of the slot
	// ranges it owns, so an operator reads the takeover candidate off
	// CLUSTER SLOTS while the primary still answers.
	slotsRep, err := pc.Do("CLUSTER", []byte("SLOTS"))
	if err != nil {
		t.Fatal(err)
	}
	if len(slotsRep.Array) != 1 || len(slotsRep.Array[0].Array) != 4 || string(slotsRep.Array[0].Array[3].Bulk) != raddr {
		t.Fatalf("CLUSTER SLOTS advertised %+v, want replica %s", slotsRep.Array, raddr)
	}

	primary.Kill()
	rc, err := Dial(raddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	rep, err := rc.Do("REPLTAKEOVER")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Type != Integer || rep.Int != NumSlots {
		t.Fatalf("REPLTAKEOVER = %v %d, want %d slots moved", rep.Type, rep.Int, NumSlots)
	}
	if got, err := rc.Get("k3"); err != nil || string(got) != "v3" {
		t.Fatalf("replicated key after takeover = %q, %v", got, err)
	}
	if err := rc.Set("post", []byte("failover")); err != nil {
		t.Fatalf("write after takeover: %v", err)
	}
	if n := counterOf(rreg, "kv_repl_promotions_total"); n != 1 {
		t.Errorf("kv_repl_promotions_total = %d, want 1", n)
	}
	var ri replInfo
	info, _ := rc.Do("REPLINFO")
	if err := json.Unmarshal(info.Bulk, &ri); err != nil {
		t.Fatal(err)
	}
	if ri.Role != "primary" {
		t.Errorf("role after takeover = %q, want primary", ri.Role)
	}
}

// TestReplicaPartitionHealsAndCatchesUp: a partitioned replica turns
// sick (kv_repl_error), keeps retrying, and converges once the
// partition heals — without losing or skipping records.
func TestReplicaPartitionHealsAndCatchesUp(t *testing.T) {
	_, paddr, _ := startReplPrimary(t)
	c, err := Dial(paddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	setKeys(t, c, 0, 10)

	var partitioned atomic.Bool
	dialer := func(addr string, timeout time.Duration) (net.Conn, error) {
		if partitioned.Load() {
			return nil, fmt.Errorf("faultnet: partitioned from %s", addr)
		}
		return net.DialTimeout("tcp", addr, timeout)
	}
	replica, _, rreg := startReplReplica(t, paddr, ReplicaOptions{Dialer: dialer})
	waitFor(t, 5*time.Second, "initial sync", func() bool { return hasKeys(replica, 10) })

	partitioned.Store(true)
	waitFor(t, 5*time.Second, "live stream", func() bool { return liveReplicaConn(replica) != nil })
	liveReplicaConn(replica).Close()
	waitFor(t, 5*time.Second, "replica to turn sick", func() bool {
		return gaugeOf(rreg, "kv_repl_error") == 1
	})
	setKeys(t, c, 10, 20) // writes the replica cannot see yet

	partitioned.Store(false)
	waitFor(t, 5*time.Second, "healed replica to catch up", func() bool { return hasKeys(replica, 20) })
	waitFor(t, 5*time.Second, "sick gauge to clear", func() bool {
		return gaugeOf(rreg, "kv_repl_error") == 0
	})
	if n := counterOf(rreg, "kv_repl_reconnects_total"); n < 1 {
		t.Errorf("kv_repl_reconnects_total = %d, want ≥ 1", n)
	}
}

// TestReplicaStalledStreamReconnects: a stream that stalls (bytes stop
// flowing, connection stays open) must trip the replica's StreamTimeout
// and reconnect instead of trailing silently forever.
func TestReplicaStalledStreamReconnects(t *testing.T) {
	_, paddr, _ := startReplPrimary(t)
	c, err := Dial(paddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	setKeys(t, c, 0, 10)

	// First connection stalls every I/O op longer than StreamTimeout;
	// later dials pass clean — a hung link that a reconnect escapes.
	plan := faultnet.Plan{StallRate: 1, Stall: 700 * time.Millisecond}
	var dials atomic.Int64
	dialer := func(addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		if dials.Add(1) == 1 {
			return plan.Wrap(conn, 0), nil
		}
		return conn, nil
	}
	replica, _, rreg := startReplReplica(t, paddr, ReplicaOptions{
		Dialer:        dialer,
		DialTimeout:   2 * time.Second,
		StreamTimeout: 200 * time.Millisecond,
	})
	waitFor(t, 10*time.Second, "initial sync", func() bool { return hasKeys(replica, 10) })
	// New writes can only arrive through a live stream read; on the
	// stalled connection every read overshoots StreamTimeout, so seeing
	// them proves the replica dropped the link and re-dialed.
	setKeys(t, c, 10, 20)
	waitFor(t, 10*time.Second, "replica to escape the stalled stream", func() bool {
		return hasKeys(replica, 20)
	})
	if dials.Load() < 2 {
		t.Errorf("dials = %d, want ≥ 2 (stalled stream must force a reconnect)", dials.Load())
	}
	if n := counterOf(rreg, "kv_repl_stream_errors_total"); n < 1 {
		t.Errorf("kv_repl_stream_errors_total = %d, want ≥ 1", n)
	}
}

// TestClusterFailoverUnderLoad is the headline chaos test: a 3-primary
// / 3-replica semi-sync cluster under concurrent pipelined SET load
// loses a primary to a crash (Kill: unfsynced+unacked bytes vanish);
// the test then fails over the way an operator does — REPLTAKEOVER on
// the dead primary's replica, CLUSTER REASSIGN on each survivor — while
// the clients ride it out on dial errors, refreshes and MOVED chases.
// Every write that was ever acknowledged must still be readable
// afterwards, and the converged cluster must serve every slot (no
// CLUSTERDOWN).
func TestClusterFailoverUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	const n = 3
	paddrs := make([]string, n)
	primaries := make([]*Server, n)
	pregs := make([]*telemetry.Registry, n)
	for i := range primaries {
		reg := telemetry.NewRegistry()
		pregs[i] = reg
		srv := NewServer(nil)
		srv.SetTelemetry(reg)
		// Semi-sync is what turns "acked writes survive the crash" from
		// likely into guaranteed: an ack requires the replica's ack.
		srv.SetReplication(ReplicationConfig{
			MinAckReplicas: 1, AckTimeout: 2 * time.Second,
			PingEvery: 10 * time.Millisecond, Poll: time.Millisecond,
		})
		if err := srv.EnableAOF(filepath.Join(t.TempDir(), fmt.Sprintf("p%d.aof", i)), time.Millisecond); err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		primaries[i] = srv
		paddrs[i] = addr
	}
	ranges := SplitSlots(paddrs)
	for i, srv := range primaries {
		if err := srv.SetClusterSlots(paddrs[i], ranges); err != nil {
			t.Fatal(err)
		}
	}

	raddrs := make([]string, n)
	replicas := make([]*Server, n)
	rregs := make([]*telemetry.Registry, n)
	for i := range replicas {
		rregs[i] = telemetry.NewRegistry()
		srv := NewServer(nil)
		srv.SetTelemetry(rregs[i])
		if err := srv.EnableAOF(filepath.Join(t.TempDir(), fmt.Sprintf("r%d.aof", i)), time.Millisecond); err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		if err := srv.SetClusterSlots(addr, ranges); err != nil {
			t.Fatal(err)
		}
		if err := srv.StartReplicaOf(paddrs[i], ReplicaOptions{
			SelfAddr: addr, StreamTimeout: 500 * time.Millisecond,
			RetryBackoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
		replicas[i] = srv
		raddrs[i] = addr
	}
	for i, srv := range primaries {
		srv := srv
		waitFor(t, 5*time.Second, fmt.Sprintf("replica %d to register", i), func() bool {
			return len(srv.hub.addrs()) == 1
		})
	}

	ccReg := telemetry.NewRegistry()
	// A chaos failure is near-impossible to diagnose from the assertion
	// message alone, so when PARETO_CHAOS_SNAPSHOT names a file, a
	// failed run dumps every node's telemetry snapshot (plus the first
	// client's) there for CI to upload as an artifact.
	if path := os.Getenv("PARETO_CHAOS_SNAPSHOT"); path != "" {
		t.Cleanup(func() {
			if !t.Failed() {
				return
			}
			dump := map[string]*telemetry.Snapshot{"cluster_client": ccReg.Snapshot()}
			for i := range pregs {
				dump[fmt.Sprintf("primary_%d", i)] = pregs[i].Snapshot()
				dump[fmt.Sprintf("replica_%d", i)] = rregs[i].Snapshot()
			}
			buf, err := json.MarshalIndent(dump, "", "  ")
			if err == nil {
				err = os.WriteFile(path, buf, 0o644)
			}
			if err != nil {
				t.Logf("chaos snapshot dump: %v", err)
				return
			}
			t.Logf("chaos telemetry snapshot written to %s", path)
		})
	}
	clientOpts := Options{
		OpTimeout: time.Second, MaxRetries: 2,
		RetryBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond,
	}
	dial := func(reg *telemetry.Registry) *ClusterClient {
		o := clientOpts
		o.Telemetry = reg
		cc, err := DialCluster(paddrs, time.Second, o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cc.Close() })
		return cc
	}
	// Two independent clients: convergence must not depend on which
	// client saw the failure first.
	cc, cc2 := dial(ccReg), dial(nil)

	// Load: three writers (two single-command, one pipelined), each
	// recording exactly the writes that were acknowledged.
	var mu sync.Mutex
	acked := make(map[string]string)
	stop := make(chan struct{})
	var failedOver atomic.Bool
	var postFailover atomic.Int64
	var wg sync.WaitGroup
	writer := func(id string, kv *ClusterClient) {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("ha:%s:%d", id, i)
			val := fmt.Sprintf("%s-%d", id, i)
			if err := kv.Set(key, []byte(val)); err != nil {
				continue // unacked: allowed to vanish
			}
			mu.Lock()
			acked[key] = val
			mu.Unlock()
			if failedOver.Load() {
				postFailover.Add(1)
			}
		}
	}
	piper := func(id string, kv *ClusterClient) {
		defer wg.Done()
		for batch := 0; ; batch++ {
			select {
			case <-stop:
				return
			default:
			}
			p, err := kv.Pipe(4)
			if err != nil {
				continue
			}
			const per = 8
			keys := make([]string, 0, per)
			sendOK := true
			for j := 0; j < per; j++ {
				key := fmt.Sprintf("ha:%s:%d:%d", id, batch, j)
				if err := p.Send("SET", []byte(key), []byte(key)); err != nil {
					sendOK = false
					break
				}
				keys = append(keys, key)
			}
			if !sendOK {
				continue
			}
			reps, err := p.Finish()
			if err != nil || len(reps) != per {
				continue // batch unacked as a whole
			}
			mu.Lock()
			for j, key := range keys {
				if reps[j].Err() == nil {
					acked[key] = key
				}
			}
			mu.Unlock()
			if failedOver.Load() {
				postFailover.Add(int64(per))
			}
		}
	}
	wg.Add(3)
	go writer("w0", cc)
	go writer("w1", cc2)
	go piper("pp", cc)

	// Let the load establish, then crash a primary out from under it.
	waitFor(t, 10*time.Second, "pre-kill load", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(acked) >= 100
	})
	primaries[0].Kill()
	failover(t, paddrs[0], raddrs[0], paddrs[1:])
	failedOver.Store(true)

	waitFor(t, 15*time.Second, "post-failover writes", func() bool {
		return postFailover.Load() >= 100
	})
	close(stop)
	wg.Wait()

	if n := counterOf(rregs[0], "kv_repl_promotions_total"); n < 1 {
		t.Errorf("kv_repl_promotions_total on promoted replica = %d, want ≥ 1", n)
	}

	// Convergence: a fresh client primed from the survivors must see
	// every slot served, none by the corpse.
	vc, err := DialCluster([]string{paddrs[1], paddrs[2], raddrs[0]}, time.Second,
		Options{OpTimeout: time.Second, MaxRetries: 2, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { vc.Close() })
	waitFor(t, 10*time.Second, "slot map convergence", func() bool {
		if err := vc.refresh(); err != nil {
			return false
		}
		for s := 0; s < NumSlots; s++ {
			if a := vc.ownerOf(s); a == "" || a == paddrs[0] {
				return false
			}
		}
		return true
	})

	// The whole point: every acknowledged write survived the crash.
	mu.Lock()
	defer mu.Unlock()
	if len(acked) < 200 {
		t.Fatalf("only %d acked writes recorded; load generator broken", len(acked))
	}
	lost := 0
	for key, want := range acked {
		got, err := vc.Get(key)
		if err != nil {
			if strings.Contains(err.Error(), "CLUSTERDOWN") {
				t.Fatalf("CLUSTERDOWN after convergence for %s: %v", key, err)
			}
			t.Fatalf("Get(%s) after failover: %v", key, err)
		}
		if string(got) != want {
			lost++
			if lost <= 5 {
				t.Errorf("acked write lost: %s = %q, want %q", key, got, want)
			}
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d acked writes lost to the failover", lost, len(acked))
	}
}

// failover runs the operator's procedure after a primary dies:
// REPLTAKEOVER on its replica, then CLUSTER REASSIGN <dead> <replica>
// on every surviving owner, so their MOVED replies point at the new
// owner.
func failover(t *testing.T, dead, replica string, survivors []string) {
	t.Helper()
	do := func(addr, cmd string, args ...[]byte) {
		c, err := Dial(addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rep, err := c.Do(cmd, args...)
		if err == nil {
			err = rep.Err()
		}
		if err != nil {
			t.Fatalf("%s on %s: %v", cmd, addr, err)
		}
	}
	do(replica, "REPLTAKEOVER")
	for _, addr := range survivors {
		do(addr, "CLUSTER", []byte("REASSIGN"), []byte(dead), []byte(replica))
	}
}
