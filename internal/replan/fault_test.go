package replan

import (
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"pareto/internal/faultnet"
	"pareto/internal/kvstore"
	"pareto/internal/partitioner"
	"pareto/internal/pivots"
	"pareto/internal/strata"
	"pareto/internal/telemetry"
)

// killSwitch is a dialer whose host can be killed (live connections
// severed, re-dials refused) and revived — a worker lost mid-migration.
type killSwitch struct {
	mu    sync.Mutex
	down  bool
	conns []net.Conn
}

func (k *killSwitch) dialer(addr string, timeout time.Duration) (net.Conn, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.down {
		return nil, &net.OpError{Op: "dial", Err: &net.DNSError{Err: "host down", Name: addr}}
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	k.conns = append(k.conns, conn)
	return conn, nil
}

func (k *killSwitch) kill() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.down = true
	for _, c := range k.conns {
		c.Close()
	}
	k.conns = nil
}

func (k *killSwitch) revive() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.down = false
}

func faultClientOptions() kvstore.Options {
	return kvstore.Options{
		OpTimeout:    time.Second,
		MaxRetries:   3,
		RetryBackoff: time.Millisecond,
		MaxBackoff:   10 * time.Millisecond,
	}
}

// faultServer starts one kvstore server, chaos-wrapped by plan unless
// it is nil, and dials it with hardened options.
func faultServer(t *testing.T, opts kvstore.Options, plan *faultnet.Plan) *kvstore.Client {
	t.Helper()
	srv := kvstore.NewServer(nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var served net.Listener = ln
	if plan != nil {
		served = plan.Listener(ln)
	}
	if err := srv.Serve(served); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := kvstore.DialOptions(ln.Addr().String(), time.Second, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestMigrationAbortMidCycleKeepsPreviousEpoch kills a worker mid-cycle
// and asserts the commit-or-abort invariant: the failed cycle changes
// nothing — the previous assignment stays fully readable partition for
// partition — and after the worker returns the next cycle completes the
// same migration.
func TestMigrationAbortMidCycleKeepsPreviousEpoch(t *testing.T) {
	docs, vocab := replanDocs(t)
	full, err := pivots.NewTextCorpus(docs, vocab)
	if err != nil {
		t.Fatal(err)
	}
	split := len(docs) * 3 / 4
	base, err := pivots.NewTextCorpus(docs[:split], vocab)
	if err != nil {
		t.Fatal(err)
	}
	ks := &killSwitch{}
	clients := []kvstore.KV{
		faultServer(t, faultClientOptions(), nil),
		faultServer(t, faultClientOptions(), nil),
		func() *kvstore.Client {
			opts := faultClientOptions()
			opts.Dialer = ks.dialer
			return faultServer(t, opts, nil)
		}(),
	}
	kv, err := partitioner.NewKVStoreKV(clients, 32, "replan-fault")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	cl := paperCluster(t, 4)
	l, err := New(base, cl, weightProfile(full), Config{
		Core:      loopCoreConfig(2),
		Drift:     strata.DriftConfig{Threshold: 0},
		Store:     kv,
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Snapshot the committed state before the doomed cycle.
	p := l.Store().p
	before := make([][][]byte, p)
	for j := 0; j < p; j++ {
		recs, err := l.Store().ReadPartition(j)
		if err != nil {
			t.Fatalf("pre-cycle read %d: %v", j, err)
		}
		before[j] = recs
	}
	actualBefore := make([][]int, p)
	for j, part := range l.Actual().Parts {
		actualBefore[j] = append([]int(nil), part...)
	}

	ks.kill()
	ingestDocs(t, l, full, split)
	pending := l.Pending()
	if _, err := l.Cycle(); err == nil {
		t.Fatal("cycle succeeded with a dead worker")
	}
	if n := reg.Counter("replan_migration_aborts_total").Value(); n != 1 {
		t.Errorf("abort counter = %d, want 1", n)
	}
	// The live placement and the pending queue are untouched.
	if !reflect.DeepEqual(l.Actual().Parts, actualBefore) {
		t.Error("failed cycle mutated the live placement")
	}
	if l.Pending() != pending {
		t.Errorf("failed cycle drained pending %d → %d", pending, l.Pending())
	}

	// The worker comes back: every partition still serves the pre-cycle
	// epoch byte-for-byte (staged writes were never pointed at).
	ks.revive()
	for j := 0; j < p; j++ {
		recs, err := l.Store().ReadPartition(j)
		if err != nil {
			t.Fatalf("post-abort read %d: %v", j, err)
		}
		if !reflect.DeepEqual(recs, before[j]) {
			t.Fatalf("partition %d changed across the aborted cycle", j)
		}
	}

	// The next cycle resumes the migration and completes it.
	rep, err := l.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged || l.Pending() != 0 {
		t.Fatalf("recovery cycle did not converge: %+v pending %d", rep, l.Pending())
	}
	if err := l.Actual().Validate(full.Len()); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < p; j++ {
		recs, err := l.Store().ReadPartition(j)
		if err != nil {
			t.Fatal(err)
		}
		want := l.Actual().Parts[j]
		if len(recs) != len(want) {
			t.Fatalf("partition %d holds %d records, want %d", j, len(recs), len(want))
		}
		for i, rec := range recs {
			if !reflect.DeepEqual(rec, full.AppendRecord(nil, want[i])) {
				t.Fatalf("partition %d record %d bytes differ", j, i)
			}
		}
	}
}

// TestMigrationSurvivesDropChaos runs drift-driven migrations through a
// transient outage: connections drop randomly for an outage window
// (faultnet FaultConns), then the store heals. Staging writes ride
// RPUSH, which the kvstore client refuses to blindly retry, so a drop
// mid-stage surfaces as an aborted cycle — the invariant under test is
// that aborted cycles change nothing and repeated cycles still drive
// the migration to convergence with an intact store.
func TestMigrationSurvivesDropChaos(t *testing.T) {
	docs, vocab := replanDocs(t)
	full, err := pivots.NewTextCorpus(docs, vocab)
	if err != nil {
		t.Fatal(err)
	}
	split := len(docs) * 3 / 4
	base, err := pivots.NewTextCorpus(docs[:split], vocab)
	if err != nil {
		t.Fatal(err)
	}
	opts := faultClientOptions()
	// MaxRetries must exceed FaultConns: every retry redials, so even if
	// each chaotic connection drops, the retry budget reaches the clean
	// connections past the outage window.
	opts.MaxRetries = 20
	client := faultServer(t, opts, &faultnet.Plan{Seed: 42, DropRate: 0.05, FaultConns: 12})
	kv, err := partitioner.NewKVStoreKV([]kvstore.KV{client}, 32, "replan-chaos")
	if err != nil {
		t.Fatal(err)
	}
	cl := paperCluster(t, 4)
	cfg := Config{
		Core:             loopCoreConfig(2),
		Drift:            strata.DriftConfig{Threshold: 0},
		MaxMovesPerCycle: 50,
		Store:            kv,
	}
	// The initial placement stages through the same chaotic store, so
	// even construction may abort; a retry is a fresh epoch-0 stage.
	var l *Loop
	for attempt := 0; ; attempt++ {
		if l, err = New(base, cl, weightProfile(full), cfg); err == nil {
			break
		}
		if attempt == 50 {
			t.Fatalf("initial placement never committed: %v", err)
		}
	}
	ingestDocs(t, l, full, split)
	aborts, converged := 0, false
	for i := 0; i < 200 && !converged; i++ {
		rep, err := l.Cycle()
		if err != nil {
			aborts++
			continue
		}
		converged = rep.Converged && l.Pending() == 0
	}
	t.Logf("aborted cycles under chaos: %d", aborts)
	if !converged {
		t.Fatal("migration never converged under connection drops")
	}
	if err := l.Actual().Validate(full.Len()); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < l.Store().p; j++ {
		recs, err := l.Store().ReadPartition(j)
		if err != nil {
			t.Fatal(err)
		}
		want := l.Actual().Parts[j]
		if len(recs) != len(want) {
			t.Fatalf("partition %d holds %d records, want %d", j, len(recs), len(want))
		}
		for i, rec := range recs {
			if !reflect.DeepEqual(rec, full.AppendRecord(nil, want[i])) {
				t.Fatalf("partition %d record %d bytes differ", j, i)
			}
		}
	}
}
