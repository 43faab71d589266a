package distrib

import (
	"errors"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"pareto/internal/faultnet"
	"pareto/internal/kvstore"
	"pareto/internal/pivots"
	"pareto/internal/strata"
)

// faultOpts is the hardened client configuration the fault tests use:
// tight deadlines, fast retries.
func faultOpts() kvstore.Options {
	return kvstore.Options{
		OpTimeout:    time.Second,
		MaxRetries:   6,
		RetryBackoff: time.Millisecond,
		MaxBackoff:   20 * time.Millisecond,
	}
}

// fastFaultOptions returns distrib Options with waits sized for tests.
func fastFaultOptions() Options {
	return Options{
		SketchWidth: 24,
		Cluster:     strata.Config{K: 6, L: 3, Seed: 11},
		Seed:        5,
		sketchWait:  800 * time.Millisecond,
	}
}

// crashingDialer dials normally once, wrapping the connection so it
// dies after ops operations; every later dial fails — a worker host
// that crashes mid-protocol and never comes back.
func crashingDialer(ops int) func(addr string, timeout time.Duration) (net.Conn, error) {
	var mu sync.Mutex
	dialed := false
	plan := faultnet.Plan{DropAfterOps: ops}
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		mu.Lock()
		defer mu.Unlock()
		if dialed {
			return nil, errors.New("worker host down")
		}
		dialed = true
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return plan.Wrap(conn, 0), nil
	}
}

// centralReference computes the in-process stratification the
// distributed runs must match bit-for-bit.
func centralReference(t *testing.T, corpus pivots.Corpus) *strata.Stratification {
	t.Helper()
	st, err := strata.Stratify(corpus, strata.StratifierConfig{
		SketchWidth: 24,
		Cluster:     strata.Config{K: 6, L: 3, Seed: 11},
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func assertBitIdentical(t *testing.T, dist, central *strata.Stratification) {
	t.Helper()
	if !reflect.DeepEqual(dist.Assign, central.Assign) {
		t.Fatal("distributed assignment differs from centralized")
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

// TestRecoveryFromDeadWorker kills worker 1 mid-sketch (its connection
// dies after a few operations and its host never answers again) and
// asserts the coordinator detects the missing shard at the bounded
// sketch barrier, re-sketches it locally, and the run completes with a
// stratification bit-identical to the in-process one.
func TestRecoveryFromDeadWorker(t *testing.T) {
	corpus := testCorpus(t, 0.0006)
	srv := kvstore.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	master, err := kvstore.DialOptions(addr, time.Second, faultOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	workers := make([]*kvstore.Client, 4)
	for i := range workers {
		opts := faultOpts()
		if i == 1 {
			opts.Dialer = crashingDialer(4)
		}
		if workers[i], err = kvstore.DialOptions(addr, time.Second, opts); err != nil {
			t.Fatal(err)
		}
		defer workers[i].Close()
	}

	dist, report, err := StratifyDetailed(master, workers, corpus, fastFaultOptions())
	if err != nil {
		t.Fatalf("StratifyDetailed with dead worker: %v", err)
	}
	if !report.TimedOut {
		t.Error("coordinator never aborted the sketch barrier")
	}
	found := false
	for _, s := range report.RecoveredShards {
		if s == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("shard 1 not recovered (recovered: %v)", report.RecoveredShards)
	}
	if report.WorkerErrs[1] == nil {
		t.Error("dead worker reported no error")
	}
	assertBitIdentical(t, dist, centralReference(t, corpus))
}

// TestRecoveryUnderCrashAndDrops is the acceptance scenario: a seeded
// fault plan injecting one worker crash AND ≥5% connection drops on
// every server-side connection. The run must still complete and return
// the bit-identical stratification.
func TestRecoveryUnderCrashAndDrops(t *testing.T) {
	corpus := testCorpus(t, 0.0006)
	srv := kvstore.NewServer(nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(faultnet.Plan{Seed: 42, DropRate: 0.05}.Listener(ln)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := ln.Addr().String()

	master, err := kvstore.DialOptions(addr, time.Second, faultOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	workers := make([]*kvstore.Client, 4)
	for i := range workers {
		opts := faultOpts()
		if i == 2 {
			opts.Dialer = crashingDialer(3)
		}
		if workers[i], err = kvstore.DialOptions(addr, time.Second, opts); err != nil {
			t.Fatal(err)
		}
		defer workers[i].Close()
	}

	dist, report, err := StratifyDetailed(master, workers, corpus, fastFaultOptions())
	if err != nil {
		t.Fatalf("StratifyDetailed under crash+drops: %v", err)
	}
	if report.WorkerErrs[2] == nil {
		t.Error("crashed worker reported no error")
	}
	assertBitIdentical(t, dist, centralReference(t, corpus))
}

// TestCleanRunReportsNoRecovery: the fault machinery must stay cold on
// a healthy cluster.
func TestCleanRunReportsNoRecovery(t *testing.T) {
	corpus := testCorpus(t, 0.0006)
	master, workers := startStore(t, 4)
	dist, report, err := StratifyDetailed(master, workers, corpus, fastFaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if report.TimedOut || len(report.RecoveredShards) != 0 || report.RecoveredRecords != 0 {
		t.Errorf("clean run engaged recovery: %+v", report)
	}
	if errors.Join(report.WorkerErrs...) != nil {
		t.Errorf("clean run reports failures: %v", report.WorkerErrs)
	}
	assertBitIdentical(t, dist, centralReference(t, corpus))
}
