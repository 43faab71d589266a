package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pareto/internal/telemetry"
)

// writeAOFRecords appends n SET records to a fresh log at path and
// returns it closed (flushed and fsynced).
func writeAOFRecords(t *testing.T, path string, n int) {
	t.Helper()
	a, err := OpenAOF(path, time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < n; i++ {
		last, err = a.Append("SET", [][]byte{
			[]byte(fmt.Sprintf("k%d", i)),
			[]byte(fmt.Sprintf("v%d", i)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Sync(last); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAOFReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.aof")
	writeAOFRecords(t, path, 20)
	e := NewEngine()
	n, _, err := ReplayAOF(path, e)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("replayed %d records, want 20", n)
	}
	for i := 0; i < 20; i++ {
		rep := e.Do("GET", []byte(fmt.Sprintf("k%d", i)))
		if string(rep.Bulk) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d = %q after replay", i, rep.Bulk)
		}
	}
}

// A crash can cut the last record off mid-write. Replay must apply the
// complete prefix and stop cleanly — the torn record was never
// acknowledged (acknowledgment waits for fsync), so losing it is
// correct, and losing anything before it is not.
func TestAOFReplayTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.aof")
	writeAOFRecords(t, path, 10)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the file at every length from "last record torn" down to
	// "half the log gone": each prefix must replay without error and
	// yield between 0 and 10 records, monotonically non-decreasing.
	prev := -1
	for cut := len(full) / 2; cut <= len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		e := NewEngine()
		n, _, err := ReplayAOF(path, e)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if n < prev {
			t.Fatalf("cut=%d: replayed %d < previous %d", cut, n, prev)
		}
		prev = n
		// Every record the replay reports must actually be present.
		for i := 0; i < n; i++ {
			if rep := e.Do("GET", []byte(fmt.Sprintf("k%d", i))); rep.Type != BulkString {
				t.Fatalf("cut=%d: k%d missing from replayed engine", cut, i)
			}
		}
	}
	if prev != 10 {
		t.Fatalf("full log replayed %d records, want 10", prev)
	}
}

func TestAOFReplayMissingFile(t *testing.T) {
	e := NewEngine()
	if _, _, err := ReplayAOF(filepath.Join(t.TempDir(), "nope.aof"), e); !os.IsNotExist(err) {
		t.Fatalf("err = %v, want not-exist", err)
	}
}

// A log EnableAOF cannot parse is refused and left byte for byte as it
// was: the header is the check on a file from outside the program, and
// torn-tail truncation must never reach a file that failed it.
func TestEnableAOFRefusesForeignHeader(t *testing.T) {
	const record = "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n"
	for _, tc := range []struct{ name, img string }{
		{"bad magic", "XAOF\x02" + record},
		{"unknown version", aofMagic + "\x03" + record},
		{"version 1 with its generation id", aofMagic + "\x01\x2a\x00\x00\x00\x00\x00\x00\x00" + record},
		{"foreign bytes shorter than a header", "PAX"},
	} {
		path := filepath.Join(t.TempDir(), "node.aof")
		if err := os.WriteFile(path, []byte(tc.img), 0o644); err != nil {
			t.Fatal(err)
		}
		if srv := NewServer(nil); srv.EnableAOF(path, time.Millisecond) == nil {
			t.Errorf("%s: EnableAOF accepted the log", tc.name)
			srv.Kill()
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != tc.img {
			t.Errorf("%s: log is %q (%v) after the refusal, want it untouched", tc.name, got, err)
		}
	}
}

// Concurrent appenders sharing one log: every Sync-acknowledged record
// must survive, and the log must replay clean. Run with -race.
func TestAOFConcurrentWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.aof")
	a, err := OpenAOF(path, 500*time.Microsecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seq, err := a.Append("SET", [][]byte{
					[]byte(fmt.Sprintf("w%d:%d", w, i)),
					[]byte("x"),
				})
				if err != nil {
					errs <- err
					return
				}
				if i%10 == 9 { // group-commit barrier every 10 appends
					if err := a.Sync(seq); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	n, _, err := ReplayAOF(path, e)
	if err != nil {
		t.Fatal(err)
	}
	if n != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", n, writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			key := []byte(fmt.Sprintf("w%d:%d", w, i))
			if rep := e.Do("GET", key); rep.Type != BulkString {
				t.Fatalf("%s missing after replay", key)
			}
		}
	}
}

// An acknowledged write must be durable: once the server replies, the
// record is on disk, so a kill -9 (simulated by reading the log file
// out from under the still-running server, then appending torn-record
// garbage) loses nothing that was acked.
func TestAOFAckedWritesSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "node.aof")
	srv := NewServer(nil)
	if err := srv.EnableAOF(path, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := dialTest(t, addr)

	const n = 200
	p, err := c.NewPipeline(32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := p.Send("SET", []byte(fmt.Sprintf("acked%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	reps, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reps {
		if r.Err() != nil {
			t.Fatalf("SET %d not acked: %v", i, r.Err())
		}
	}

	// "Crash": copy the log file as it exists the instant after the
	// acks, without closing the server, and tack a torn record onto the
	// end the way an interrupted write would.
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img = append(img, []byte("*3\r\n$3\r\nSET\r\n$9\r\ntorn-")...)
	crashed := filepath.Join(dir, "crashed.aof")
	if err := os.WriteFile(crashed, img, 0o644); err != nil {
		t.Fatal(err)
	}

	e := NewEngine()
	if _, _, err := ReplayAOF(crashed, e); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rep := e.Do("GET", []byte(fmt.Sprintf("acked%d", i)))
		if string(rep.Bulk) != fmt.Sprintf("v%d", i) {
			t.Fatalf("acked%d = %q after crash replay, want v%d", i, rep.Bulk, i)
		}
	}
}

// After one unclean crash leaves a torn tail record, a restarted
// server must truncate the torn bytes before appending — otherwise
// every post-crash acked write lands behind unparseable garbage and is
// lost (or corrupted) on the *next* restart. This drives the full
// crash → restart → write → restart chain.
func TestAOFTornTailTruncatedOnRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "node.aof")

	// Lifetime 1 ends in a crash mid-append: 10 acked records plus a
	// record cut off partway through its payload.
	writeAOFRecords(t, path, 10)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const tornTail = "*3\r\n$3\r\nSET\r\n$9\r\ntorn-"
	intact := int64(len(img))
	img = append(img, tornTail...)
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}

	// Lifetime 2: restart replays the complete prefix, truncates the
	// torn tail, and acks new writes.
	srv := NewServer(nil)
	if err := srv.EnableAOF(path, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != intact {
		t.Fatalf("aof size after restart = %d, want torn tail truncated to %d", fi.Size(), intact)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := dialTest(t, addr)
	for i := 0; i < 5; i++ {
		if err := c.Set(fmt.Sprintf("post%d", i), []byte("after-crash")); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Lifetime 3: the log must replay end-to-end without a protocol
	// error — the torn record did not poison the bytes behind it.
	e := NewEngine()
	n, _, err := ReplayAOF(path, e)
	if err != nil {
		t.Fatalf("replay after append-past-torn-tail: %v", err)
	}
	if n != 15 {
		t.Fatalf("replayed %d records, want 15", n)
	}
	for i := 0; i < 10; i++ {
		if rep := e.Do("GET", []byte(fmt.Sprintf("k%d", i))); rep.Type != BulkString {
			t.Fatalf("pre-crash k%d lost", i)
		}
	}
	for i := 0; i < 5; i++ {
		if rep := e.Do("GET", []byte(fmt.Sprintf("post%d", i))); string(rep.Bulk) != "after-crash" {
			t.Fatalf("post-crash post%d = %q after replay", i, rep.Bulk)
		}
	}
}

// Sync's contract: a record that is already durable reports success
// even after the log later fails — the sticky error belongs to the
// records that actually lost durability, not to reply batches whose
// writes are safely on disk.
func TestAOFSyncDurableDespiteLaterError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.aof")
	a, err := OpenAOF(path, time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := a.Append("SET", [][]byte{[]byte("k"), []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Sync(seq); err != nil {
		t.Fatal(err)
	}
	// The log dies after the fsync.
	a.mu.Lock()
	a.err = errors.New("disk gone")
	a.mu.Unlock()
	if err := a.Sync(seq); err != nil {
		t.Errorf("Sync(%d) on an already-durable record = %v, want nil", seq, err)
	}
	if _, err := a.Append("SET", [][]byte{[]byte("k2"), []byte("v2")}); err == nil {
		t.Error("Append on a dead log succeeded")
	}
	if err := a.Sync(seq + 1); err == nil {
		t.Error("Sync past the failure point must surface the error")
	}
}

// Group commit must batch: 1k pipelined SETs over a w-wide sync window
// may cost at most elapsed/w + 2 fsyncs (one per window plus the lead
// and tail commits), not one fsync per SET.
func TestAOFGroupCommitFsyncBound(t *testing.T) {
	const window = 5 * time.Millisecond
	path := filepath.Join(t.TempDir(), "node.aof")
	srv := NewServer(nil)
	reg := telemetry.NewRegistry()
	srv.SetTelemetry(reg)
	if err := srv.EnableAOF(path, window); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := dialTest(t, addr)

	const n = 1000
	start := time.Now()
	p, err := c.NewPipeline(64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := p.Send("SET", []byte(fmt.Sprintf("gc%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	snap := reg.Snapshot()
	fsyncs := snap.Counters["kv_aof_fsyncs_total"]
	records := snap.Counters["kv_aof_records_total"]
	if records != n {
		t.Fatalf("kv_aof_records_total = %d, want %d", records, n)
	}
	bound := int64(elapsed/window) + 2
	if fsyncs > bound {
		t.Errorf("%d fsyncs for %d pipelined SETs over %v (window %v), want ≤ %d",
			fsyncs, n, elapsed, window, bound)
	}
	if fsyncs == 0 {
		t.Error("no fsyncs recorded — acks were not made durable")
	}
}

// BenchmarkRestart times what bounds a node's recovery: one restart
// (EnableAOF, then Kill) of a server whose N keys live in its AOF.
// file_B is the bytes the restart reads.
func BenchmarkRestart(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("aof/%dk", n/1000), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "node.aof")
			a, err := OpenAOF(path, time.Millisecond, nil)
			if err != nil {
				b.Fatal(err)
			}
			val := bytes.Repeat([]byte("v"), 32)
			for i := 0; i < n; i++ {
				if _, err := a.Append("SET", [][]byte{[]byte(fmt.Sprintf("key:%07d", i)), val}); err != nil {
					b.Fatal(err)
				}
			}
			if err := a.Close(); err != nil {
				b.Fatal(err)
			}
			fi, err := os.Stat(path)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv := NewServer(nil)
				if err := srv.EnableAOF(path, 0); err != nil {
					b.Fatal(err)
				}
				if got := srv.Engine().Size(); got != int64(n) {
					b.Fatalf("restart holds %d keys, want %d", got, n)
				}
				srv.Kill()
			}
			b.ReportMetric(float64(fi.Size()), "file_B")
		})
	}
}
