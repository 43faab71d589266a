package distrib

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"pareto/internal/kvstore"
	"pareto/internal/strata"
)

// startSlotCluster stands up n slot-partitioned kvstore servers (an
// even SplitSlots map) and returns cluster clients: one master plus
// `clients` workers, each its own ClusterClient with its own
// connection pool, exactly how separate worker processes would dial in.
func startSlotCluster(t *testing.T, n, clients int) (*kvstore.ClusterClient, []*kvstore.ClusterClient) {
	t.Helper()
	addrs := make([]string, n)
	servers := make([]*kvstore.Server, n)
	for i := range servers {
		srv := kvstore.NewServer(nil)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		servers[i] = srv
		addrs[i] = addr
	}
	ranges := kvstore.SplitSlots(addrs)
	for i, srv := range servers {
		if err := srv.SetClusterSlots(addrs[i], ranges); err != nil {
			t.Fatal(err)
		}
	}
	dial := func() *kvstore.ClusterClient {
		cc, err := kvstore.DialCluster(addrs[:1], time.Second, kvstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cc.Close() })
		return cc
	}
	master := dial()
	ws := make([]*kvstore.ClusterClient, clients)
	for i := range ws {
		ws[i] = dial()
	}
	return master, ws
}

// The distributed stratifier must run unchanged against a 3-process
// slot-partitioned cluster: every shipped shard, assignment record,
// and barrier counter routes to its slot's owner, and the result is
// still bit-identical to the centralized run.
func TestDistributedOverSlotCluster(t *testing.T) {
	corpus := testCorpus(t, 0.0006)
	master, workers := startSlotCluster(t, 3, 4)
	opts := Options{
		SketchWidth: 24,
		Cluster:     strata.Config{K: 6, L: 3, Seed: 11},
		Seed:        5,
	}
	dist, _, err := StratifyDetailed(master, workers, corpus, opts)
	if err != nil {
		t.Fatal(err)
	}
	central, err := strata.Stratify(corpus, strata.StratifierConfig{
		SketchWidth: 24,
		Cluster:     strata.Config{K: 6, L: 3, Seed: 11},
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dist.Assign, central.Assign) {
		t.Fatal("cluster-distributed assignment differs from centralized")
	}
	if !reflect.DeepEqual(dist.WeightTotals, central.WeightTotals) {
		t.Fatal("weight totals differ")
	}
	for s := range central.Members {
		if !reflect.DeepEqual(dist.Members[s], central.Members[s]) {
			t.Fatalf("stratum %d members differ", s)
		}
	}
}

// The distributed stratifier must also be indifferent to *which*
// process serves a slot range: after a primary is crashed and its
// replica promoted in its place by the operator's two commands, a run
// over the reshaped cluster must still be bit-identical to the
// centralized stratification — failover changes topology, never data
// or routing semantics.
func TestDistributedAfterFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("failover test")
	}
	corpus := testCorpus(t, 0.0006)
	const n = 3
	addrs := make([]string, n)
	servers := make([]*kvstore.Server, n)
	for i := range servers {
		srv := kvstore.NewServer(nil)
		if i == 0 {
			// Node 0 will be crashed; only it needs the record log a
			// replica can stream from.
			if err := srv.EnableAOF(filepath.Join(t.TempDir(), "p0.aof"), time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		servers[i] = srv
		addrs[i] = addr
	}
	ranges := kvstore.SplitSlots(addrs)
	for i, srv := range servers {
		if err := srv.SetClusterSlots(addrs[i], ranges); err != nil {
			t.Fatal(err)
		}
	}
	replica := kvstore.NewServer(nil)
	raddr, err := replica.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { replica.Close() })
	if err := replica.SetClusterSlots(raddr, ranges); err != nil {
		t.Fatal(err)
	}
	if err := replica.StartReplicaOf(addrs[0], kvstore.ReplicaOptions{
		SelfAddr: raddr, StreamTimeout: 500 * time.Millisecond,
		RetryBackoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	// Wait until node 0 streams to its replica before crashing it.
	pc, err := kvstore.Dial(addrs[0], time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	attached := func() bool {
		rep, err := pc.Do("REPLINFO")
		if err != nil || rep.Err() != nil {
			return false
		}
		var info struct {
			Replicas []struct {
				Addr string `json:"addr"`
			} `json:"replicas"`
		}
		if json.Unmarshal(rep.Bulk, &info) != nil {
			return false
		}
		return len(info.Replicas) == 1 && info.Replicas[0].Addr == raddr
	}
	for deadline := time.Now().Add(5 * time.Second); !attached(); {
		if time.Now().After(deadline) {
			t.Fatal("replica never attached to node 0")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The operator's failover: promote the replica, then point each
	// surviving owner's slot table at it.
	servers[0].Kill()
	operator := func(addr, cmd string, args ...[]byte) {
		c, err := kvstore.Dial(addr, time.Second)
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
	operator(raddr, "REPLTAKEOVER")
	for _, addr := range addrs[1:] {
		operator(addr, "CLUSTER", []byte("REASSIGN"), []byte(addrs[0]), []byte(raddr))
	}

	seeds := []string{addrs[1], addrs[2], raddr}
	dial := func() *kvstore.ClusterClient {
		cc, err := kvstore.DialCluster(seeds, time.Second, faultOpts(3))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cc.Close() })
		return cc
	}
	master := dial()
	workers := make([]*kvstore.ClusterClient, 4)
	for i := range workers {
		workers[i] = dial()
	}
	opts := Options{
		SketchWidth: 24,
		Cluster:     strata.Config{K: 6, L: 3, Seed: 11},
		Seed:        5,
	}
	dist, _, err := StratifyDetailed(master, workers, corpus, opts)
	if err != nil {
		t.Fatal(err)
	}
	central, err := strata.Stratify(corpus, strata.StratifierConfig{
		SketchWidth: 24,
		Cluster:     strata.Config{K: 6, L: 3, Seed: 11},
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dist.Assign, central.Assign) {
		t.Fatal("post-failover distributed assignment differs from centralized")
	}
	if !reflect.DeepEqual(dist.WeightTotals, central.WeightTotals) {
		t.Fatal("weight totals differ")
	}
}

// A typed-nil ClusterClient must be caught by the same validation that
// rejects a nil *Client master.
func TestDistributedClusterValidation(t *testing.T) {
	corpus := testCorpus(t, 0.0003)
	_, workers := startSlotCluster(t, 2, 2)
	var nilMaster *kvstore.ClusterClient
	if _, _, err := StratifyDetailed(nilMaster, workers, corpus, Options{Cluster: strata.Config{K: 2, L: 1}}); err == nil {
		t.Error("typed-nil cluster master accepted")
	}
}
