package distrib

import (
	"reflect"
	"testing"
	"time"

	"pareto/internal/kvstore"
	"pareto/internal/strata"
)

// startSlotCluster stands up n slot-partitioned kvstore servers (an
// even SplitSlots map) and returns their addresses and cluster clients:
// one master plus `clients` workers, each its own ClusterClient with its
// own connection pool, exactly how separate worker processes would dial
// in.
func startSlotCluster(t *testing.T, n, clients int) ([]string, *kvstore.ClusterClient, []*kvstore.ClusterClient) {
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
	return addrs, master, ws
}

// The distributed stratifier must run unchanged against a 3-process
// slot-partitioned cluster: every shipped shard, assignment record,
// and barrier counter routes to its slot's owner, and the result is
// still bit-identical to the centralized run.
func TestDistributedOverSlotCluster(t *testing.T) {
	corpus := testCorpus(t, 0.0006)
	_, master, workers := startSlotCluster(t, 3, 4)
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

// A typed-nil ClusterClient must be caught by the same validation that
// rejects a nil *Client master.
func TestDistributedClusterValidation(t *testing.T) {
	corpus := testCorpus(t, 0.0003)
	_, _, workers := startSlotCluster(t, 2, 2)
	var nilMaster *kvstore.ClusterClient
	if _, _, err := StratifyDetailed(nilMaster, workers, corpus, Options{Cluster: strata.Config{K: 2, L: 1}}); err == nil {
		t.Error("typed-nil cluster master accepted")
	}
}
