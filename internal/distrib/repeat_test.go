package distrib

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"

	"pareto/internal/kvstore"
	"pareto/internal/telemetry"
)

// keyCount sums DBSIZE over the given servers.
func keyCount(t *testing.T, addrs ...string) int64 {
	t.Helper()
	var total int64
	for _, addr := range addrs {
		c, err := kvstore.Dial(addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Do("DBSIZE")
		c.Close()
		if err != nil || rep.Err() != nil {
			t.Fatalf("DBSIZE on %s: %v %v", addr, err, rep.Err())
		}
		total += rep.Int
	}
	return total
}

// repeatRuns runs the protocol three times over the same clients and
// the same key prefix. Every run must be the protocol, not a recovery:
// the coordinator waits at the barrier, gathers what the workers
// shipped, and leaves nothing on the store but the run counter.
func repeatRuns[C kvstore.KV](t *testing.T, master C, workers []C, addrs []string) {
	corpus := testCorpus(t, 0.0006)
	central := centralReference(t, corpus)
	reg := telemetry.NewRegistry()
	o := fastFaultOptions()
	o.Telemetry = reg
	base := keyCount(t, addrs...)
	var waited telemetry.HistogramSnapshot
	for run := 1; run <= 3; run++ {
		dist, report, err := StratifyDetailed(master, workers, corpus, o)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if report.TimedOut || len(report.RecoveredShards) != 0 || report.RecoveredRecords != 0 {
			t.Fatalf("run %d engaged recovery: %+v", run, report)
		}
		if err := errors.Join(report.WorkerErrs...); err != nil {
			t.Fatalf("run %d worker failures: %v", run, err)
		}
		assertBitIdentical(t, dist, central)
		if dist.Cost != central.Cost || dist.Iterations != central.Iterations || len(dist.Centers) != len(central.Centers) {
			t.Fatalf("run %d: cost %d iterations %d centers %d, want %d %d %d", run,
				dist.Cost, dist.Iterations, len(dist.Centers), central.Cost, central.Iterations, len(central.Centers))
		}
		h := reg.Snapshot().Histograms["distrib_barrier_wait_ns"]
		if h.Count != waited.Count+1 || h.Sum <= waited.Sum {
			t.Fatalf("run %d: barrier wait count %d sum %d after count %d sum %d", run, h.Count, h.Sum, waited.Count, waited.Sum)
		}
		waited = h
		if got := keyCount(t, addrs...); got != base+1 {
			t.Fatalf("run %d left %d keys on the store, want the run counter alone", run, got-base)
		}
	}
	if got := reg.Snapshot().Counters["distrib_recovered_records_total"]; got != 0 {
		t.Fatalf("distrib_recovered_records_total = %d after three clean runs", got)
	}
}

// TestRepeatedRunsStayClean: a second run under a prefix used to find
// the first run's barrier counter already at parties, sail through, and
// re-sketch the whole corpus as "recovered records".
func TestRepeatedRunsStayClean(t *testing.T) {
	t.Run("one server", func(t *testing.T) {
		addr, master, workers := liveServer(t, 4)
		repeatRuns(t, master, workers, []string{addr})
	})
	t.Run("slot cluster", func(t *testing.T) {
		addrs, master, workers := startSlotCluster(t, 3, 4)
		repeatRuns(t, master, workers, addrs)
	})
}

// liveServer starts one store and dials it n+1 times with the fault
// tests' client options: a master and n workers.
func liveServer(t *testing.T, n int) (string, *kvstore.Client, []*kvstore.Client) {
	t.Helper()
	srv := kvstore.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	master, workers := dialAll(t, addr, n)
	return addr, master, workers
}

func dialAll(t *testing.T, addr string, n int) (*kvstore.Client, []*kvstore.Client) {
	t.Helper()
	cs := make([]*kvstore.Client, n+1)
	for i := range cs {
		c, err := kvstore.DialOptions(addr, time.Second, faultOpts())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		cs[i] = c
	}
	return cs[0], cs[1:]
}

// TestCleanRunAfterAbortedRun: a run whose coordinator aborted the
// barrier (worker 1's host died) must not put the next run under the
// same prefix into recovery — the abort key is the dead run's.
func TestCleanRunAfterAbortedRun(t *testing.T) {
	corpus := testCorpus(t, 0.0006)
	central := centralReference(t, corpus)
	addr, master, workers := liveServer(t, 4)
	base := keyCount(t, addr)
	opts := faultOpts()
	opts.Dialer = crashingDialer(4)
	var err error
	if workers[1], err = kvstore.DialOptions(addr, time.Second, opts); err != nil {
		t.Fatal(err)
	}
	defer workers[1].Close()
	dist, report, err := StratifyDetailed(master, workers, corpus, fastFaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !report.TimedOut || len(report.RecoveredShards) == 0 {
		t.Fatalf("dead worker did not engage recovery: %+v", report)
	}
	assertBitIdentical(t, dist, central)

	master, workers = dialAll(t, addr, 4)
	dist, report, err = StratifyDetailed(master, workers, corpus, fastFaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if report.TimedOut || len(report.RecoveredShards) != 0 || report.RecoveredRecords != 0 || errors.Join(report.WorkerErrs...) != nil {
		t.Fatalf("run after an aborted run is not clean: %+v", report)
	}
	assertBitIdentical(t, dist, central)
	if got := keyCount(t, addr); got != base+1 {
		t.Fatalf("two runs left %d keys on the store, want the run counter alone", got-base)
	}
}

// tamperKV is a store client whose list reads pass through tamper: the
// coordinator's view of a worker that shipped garbage.
type tamperKV struct {
	*kvstore.Client
	tamper func(key string, batch [][]byte)
}

func (k tamperKV) LRangeChunked(key string, window int64, fn func(batch [][]byte) error) error {
	return k.Client.LRangeChunked(key, window, func(batch [][]byte) error {
		if k.tamper != nil {
			k.tamper(key, batch)
		}
		return fn(batch)
	})
}

// TestMalformedBlockFailsTheGather: a block that is not a whole number
// of records, or names a record outside the corpus, fails the run
// naming the shard it came from, promptly, with no worker error (no
// worker reads an assignment that was never published), and leaves the
// prefix usable.
func TestMalformedBlockFailsTheGather(t *testing.T) {
	corpus := testCorpus(t, 0.0006)
	addr, m, ws := liveServer(t, 3)
	base := keyCount(t, addr)
	workers := make([]tamperKV, len(ws))
	for i, c := range ws {
		workers[i] = tamperKV{Client: c}
	}
	o := fastFaultOptions()
	for name, tamper := range map[string]func(batch [][]byte){
		"ragged block":       func(batch [][]byte) { batch[0] = batch[0][:len(batch[0])-1] },
		"empty block":        func(batch [][]byte) { batch[0] = nil },
		"index out of range": func(batch [][]byte) { binary.LittleEndian.PutUint32(batch[0], uint32(corpus.Len())) },
	} {
		master := tamperKV{Client: m, tamper: func(key string, batch [][]byte) {
			if strings.HasSuffix(key, ":sketches:1") {
				tamper(batch)
			}
		}}
		start := time.Now()
		_, report, err := StratifyDetailed(master, workers, corpus, o)
		if err == nil || !strings.Contains(err.Error(), "gathering worker 1 sketches") {
			t.Fatalf("%s: error %v does not name shard 1", name, err)
		}
		if time.Since(start) > 10*time.Second {
			t.Errorf("%s: failed run took %v", name, time.Since(start))
		}
		if werr := errors.Join(report.WorkerErrs...); werr != nil {
			t.Errorf("%s: worker errors: %v", name, werr)
		}
		if got := keyCount(t, addr); got != base+1 {
			t.Fatalf("%s: failed run left %d keys on the store", name, got-base)
		}
	}
	dist, report, err := StratifyDetailed(tamperKV{Client: m}, workers, corpus, o)
	if err != nil {
		t.Fatal(err)
	}
	if report.TimedOut || report.RecoveredRecords != 0 || errors.Join(report.WorkerErrs...) != nil {
		t.Fatalf("run after failed runs is not clean: %+v", report)
	}
	assertBitIdentical(t, dist, centralReference(t, corpus))
}
