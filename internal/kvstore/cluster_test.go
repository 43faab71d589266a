package kvstore

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pareto/internal/telemetry"
)

// startCluster stands up n in-process slot-partitioned servers: each
// Listens first (so its advertised address is its real one), then the
// even SplitSlots map is installed on every node. Returns the node
// addresses in slot order.
func startCluster(t *testing.T, n int) ([]string, []*Server) {
	t.Helper()
	servers := make([]*Server, n)
	addrs := make([]string, n)
	for i := range servers {
		srv := NewServer(nil)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		servers[i] = srv
		addrs[i] = addr
	}
	ranges := SplitSlots(addrs)
	for i, srv := range servers {
		if err := srv.SetClusterSlots(addrs[i], ranges); err != nil {
			t.Fatal(err)
		}
	}
	return addrs, servers
}

func dialClusterTest(t *testing.T, seeds []string, opts Options) *ClusterClient {
	t.Helper()
	cc, err := DialCluster(seeds, time.Second, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cc.Close() })
	return cc
}

func TestClusterClientRoutesAcrossNodes(t *testing.T) {
	addrs, servers := startCluster(t, 3)
	cc := dialClusterTest(t, addrs[:1], Options{}) // one seed primes the whole map

	if got := cc.Slots(); len(got) != 3 {
		t.Fatalf("Slots() = %+v, want 3 ranges", got)
	}
	// Write enough keys that every node certainly owns some.
	const n = 60
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("route:%d", i)
		if err := cc.Set(key, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Set(%s): %v", key, err)
		}
	}
	for i := 0; i < n; i++ {
		got, err := cc.Get(fmt.Sprintf("route:%d", i))
		if err != nil || string(got) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(route:%d) = %q, %v", i, got, err)
		}
	}
	// Each key must physically live on (only) the engine that owns its
	// slot — the routing really is by slot, not broadcast.
	ranges := SplitSlots(addrs)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("route:%d", i)
		slot := SlotForKey(key)
		for j, srv := range servers {
			rep := srv.Engine().Do("GET", []byte(key))
			owns := slot >= ranges[j].Lo && slot <= ranges[j].Hi
			if owns && rep.Type != BulkString {
				t.Errorf("%s (slot %d) missing from its owner node %d", key, slot, j)
			}
			if !owns && rep.Type != NullBulk {
				t.Errorf("%s (slot %d) leaked onto non-owner node %d", key, slot, j)
			}
		}
	}
	if _, err := cc.Get("route:missing"); !errors.Is(err, ErrNil) {
		t.Errorf("missing key error = %v, want ErrNil", err)
	}
	if err := cc.Ping(); err != nil {
		t.Errorf("cluster Ping: %v", err)
	}
}

func TestClusterClientChasesMoved(t *testing.T) {
	addrs, _ := startCluster(t, 3)
	reg := telemetry.NewRegistry()
	cc := dialClusterTest(t, addrs, Options{Telemetry: reg})

	key := "chase:me"
	if err := cc.Set(key, []byte("before")); err != nil {
		t.Fatal(err)
	}
	slot := SlotForKey(key)
	owner := cc.ownerOf(slot)
	// Poison the table: point the slot at a node that does NOT own it.
	var wrong string
	for _, a := range addrs {
		if a != owner {
			wrong = a
			break
		}
	}
	cc.setOwner(slot, wrong)

	// The Get lands on the wrong node, gets MOVED, chases it, succeeds.
	got, err := cc.Get(key)
	if err != nil || string(got) != "before" {
		t.Fatalf("Get after mispriming = %q, %v", got, err)
	}
	if repaired := cc.ownerOf(slot); repaired != owner {
		t.Errorf("table after chase points %d at %s, want %s", slot, repaired, owner)
	}
	moved := reg.Snapshot().Counters["kv_cluster_client_moved_total"]
	if moved < 1 {
		t.Errorf("kv_cluster_client_moved_total = %d, want ≥ 1", moved)
	}
}

// TestClusterMultiKeySplit: DEL, the one multi-key command, is split by
// slot owner — a single DEL naming keys of three nodes would answer
// MOVED — and the per-owner counts add up.
func TestClusterMultiKeySplit(t *testing.T) {
	addrs, _ := startCluster(t, 3)
	cc := dialClusterTest(t, addrs[:1], Options{})

	const n = 40
	keys := make([]string, n)
	owners := make(map[int]bool)
	for i := range keys {
		keys[i] = fmt.Sprintf("multi:%d", i)
		owners[SlotForKey(keys[i])*len(addrs)/NumSlots] = true
		if err := cc.Set(keys[i], []byte(fmt.Sprintf("mv%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if len(owners) != len(addrs) {
		t.Fatalf("keys cover %d of %d nodes; the split is not exercised", len(owners), len(addrs))
	}
	deleted, err := cc.Del(append(keys, "multi:nope")...)
	if err != nil || deleted != n {
		t.Fatalf("Del = %d, %v; want %d", deleted, err, n)
	}
	for i, k := range keys[:5] {
		if _, err := cc.Get(k); !errors.Is(err, ErrNil) {
			t.Errorf("key %d survived Del: %v", i, err)
		}
	}
}

func TestClusterPipelineMergesInSendOrder(t *testing.T) {
	addrs, _ := startCluster(t, 3)
	cc := dialClusterTest(t, addrs[:1], Options{})

	p, err := cc.Pipe(8)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	p.Expect(2 * n)
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("pl:%d", i))
		if err := p.Send("SET", key, []byte(fmt.Sprintf("pv%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := p.Send("GET", key); err != nil {
			t.Fatal(err)
		}
	}
	reps, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2*n {
		t.Fatalf("%d replies, want %d", len(reps), 2*n)
	}
	// Send order interleaves SET/GET per key; the merged replies must
	// line up even though they came back from three different nodes.
	for i := 0; i < n; i++ {
		if reps[2*i].Err() != nil {
			t.Fatalf("SET %d: %v", i, reps[2*i].Err())
		}
		want := fmt.Sprintf("pv%d", i)
		if got := string(reps[2*i+1].Bulk); got != want {
			t.Fatalf("reply %d = %q, want %q (cross-node merge out of order)", 2*i+1, got, want)
		}
	}
	// Keyless commands cannot take a position in the merged order.
	if err := p.Send("PING"); err == nil {
		t.Error("keyless Send on a cluster pipeline must error")
	}
}

func TestClusterPipelineMovedSurfacesError(t *testing.T) {
	addrs, _ := startCluster(t, 2)
	cc := dialClusterTest(t, addrs, Options{})

	key := "plmoved:x"
	slot := SlotForKey(key)
	owner := cc.ownerOf(slot)
	wrong := addrs[0]
	if wrong == owner {
		wrong = addrs[1]
	}
	cc.setOwner(slot, wrong)

	p, err := cc.Pipe(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send("SET", []byte(key), []byte("v")); err != nil {
		t.Fatal(err)
	}
	_, err = p.Finish()
	if err == nil || !strings.Contains(err.Error(), "MOVED") {
		t.Fatalf("Finish after misrouted pipeline = %v, want MOVED error", err)
	}
	// The redirect repaired the table: re-issuing the batch succeeds.
	if repaired := cc.ownerOf(slot); repaired != owner {
		t.Fatalf("table not repaired: %s, want %s", repaired, owner)
	}
	p2, err := cc.Pipe(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Send("SET", []byte(key), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Finish(); err != nil {
		t.Fatalf("re-issued batch: %v", err)
	}
	got, err := cc.Get(key)
	if err != nil || string(got) != "v" {
		t.Fatalf("Get after re-issue = %q, %v", got, err)
	}
}

func TestClusterClientRefreshOnUnknownSlot(t *testing.T) {
	addrs, _ := startCluster(t, 2)
	cc := dialClusterTest(t, addrs[:1], Options{})
	// Blow the whole table away; the next command must re-prime it from
	// the pooled connections instead of failing.
	cc.mu.Lock()
	cc.owner = [NumSlots]string{}
	cc.mu.Unlock()
	if err := cc.Set("refresh:k", []byte("v")); err != nil {
		t.Fatalf("Set after table wipe: %v", err)
	}
	got, err := cc.Get("refresh:k")
	if err != nil || string(got) != "v" {
		t.Fatalf("Get after table wipe = %q, %v", got, err)
	}
}

func TestDialClusterNoSeeds(t *testing.T) {
	if _, err := DialCluster(nil, time.Second, Options{}); err == nil {
		t.Error("DialCluster with no seeds must error")
	}
}

// The barrier protocol over a cluster: INCR/GET route to the counter
// key's slot owner, so parties meeting through different ClusterClients
// still rendezvous on one node.
func TestBarrierOverCluster(t *testing.T) {
	addrs, _ := startCluster(t, 3)
	const parties = 3
	done := make(chan error, parties)
	for p := 0; p < parties; p++ {
		go func() {
			cc, err := DialCluster(addrs, time.Second, Options{})
			if err != nil {
				done <- err
				return
			}
			defer cc.Close()
			b, err := NewBarrier(cc, "cluster-rendezvous", parties)
			if err != nil {
				done <- err
				return
			}
			b.Timeout = 5 * time.Second
			done <- b.Await()
		}()
	}
	for p := 0; p < parties; p++ {
		if err := <-done; err != nil {
			t.Fatalf("party %d: %v", p, err)
		}
	}
}
