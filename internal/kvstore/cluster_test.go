package kvstore

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pareto/internal/telemetry"
)

// startCluster stands up n in-process slot-partitioned servers, each
// with its own telemetry registry: each Listens first (so its
// advertised address is its real one), then the even SplitSlots map is
// installed on every node. Returns the node addresses in slot order.
func startCluster(t *testing.T, n int) ([]string, []*Server) {
	t.Helper()
	servers := make([]*Server, n)
	addrs := make([]string, n)
	for i := range servers {
		srv := NewServer(nil)
		srv.SetTelemetry(telemetry.NewRegistry())
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

	cc.mu.Lock()
	primed := (&slotTable{owner: cc.owner}).ranges()
	cc.mu.Unlock()
	if want := SplitSlots(addrs); fmt.Sprint(primed) != fmt.Sprint(want) {
		t.Fatalf("slot table %+v, want %+v", primed, want)
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

// TestClusterPipeWritesToItsKeysOwner: cc.Pipe(key, w) is the pipeline
// of key's owner, so its RPUSHes reach that node and no other. With the
// slot pointed at the wrong node the batch's replies carry MOVED, and a
// re-issue that starts with DEL, as both writers do, lands on the owner.
func TestClusterPipeWritesToItsKeysOwner(t *testing.T) {
	addrs, servers := startCluster(t, 3)
	cc := dialClusterTest(t, addrs[:1], Options{})
	const key, n = "pipe:list", 10
	slot := SlotForKey(key)
	owner := cc.ownerOf(slot)

	// write is both writers' shape: DEL, then one pipeline of RPUSHes,
	// each reply the list's new length.
	write := func() {
		t.Helper()
		if _, err := cc.Del(key); err != nil {
			t.Fatal(err)
		}
		p, err := cc.Pipe(key, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := p.Send("RPUSH", []byte(key), []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		reps, err := p.Finish()
		if err != nil || len(reps) != n {
			t.Fatalf("Finish = %d replies, %v; want %d", len(reps), err, n)
		}
		for i, rep := range reps {
			if rep.Type != Integer || rep.Int != int64(i+1) {
				t.Fatalf("RPUSH %d reply %+v, want length %d", i, rep, i+1)
			}
		}
		// A node publishes a batch's counts before it reads the next
		// command, so this reply follows the RPUSH counts.
		if got, err := cc.LLen(key); err != nil || got != n {
			t.Fatalf("LLen = %d, %v; want %d", got, err, n)
		}
	}

	write()
	for i, srv := range servers {
		want := int64(0)
		if addrs[i] == owner {
			want = n
		}
		if got := srv.telemetry.Snapshot().Counters[`kv_server_commands_total{cmd="rpush"}`]; got != want {
			t.Errorf("node %s counted %d RPUSHes, want %d", addrs[i], got, want)
		}
	}

	var wrong string
	for _, a := range addrs {
		if a != owner {
			wrong = a
			break
		}
	}
	cc.setOwner(slot, wrong)
	p, err := cc.Pipe(key, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := p.Send("RPUSH", []byte(key), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	reps, err := p.Finish()
	if err != nil || len(reps) != 3 {
		t.Fatalf("misrouted Finish = %d replies, %v; want 3", len(reps), err)
	}
	for i, rep := range reps {
		if s, to, ok := parseMoved(rep); !ok || s != slot || to != owner {
			t.Fatalf("misrouted RPUSH %d reply %+v, want MOVED %d %s", i, rep, slot, owner)
		}
	}
	// The DEL's redirect repairs the table, so the re-issue's pipeline
	// is the owner's.
	write()
	if repaired := cc.ownerOf(slot); repaired != owner {
		t.Fatalf("table after the re-issue points %d at %s, want %s", slot, repaired, owner)
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
