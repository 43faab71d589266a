package kvstore

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"pareto/internal/faultnet"
	"pareto/internal/telemetry"
)

// scanner is the window scan Client and ClusterClient share.
type scanner interface {
	LRangeChunked(key string, window int64, fn func(batch [][]byte) error) error
	LLen(key string) (int64, error)
	RPush(key string, vals ...[]byte) (int64, error)
}

// pushList pushes n distinct values of 1 to 300 bytes under key and
// returns them.
func pushList(t testing.TB, kv interface {
	RPush(key string, vals ...[]byte) (int64, error)
}, key string, n int) [][]byte {
	t.Helper()
	vals := make([][]byte, n)
	for i := range vals {
		vals[i] = append([]byte(fmt.Sprintf("%s-%05d-", key, i)), bytes.Repeat([]byte{byte('a' + i%26)}, i*37%300)...)
	}
	if _, err := kv.RPush(key, vals...); err != nil {
		t.Fatal(err)
	}
	return vals
}

// scanCopies scans key in windows and returns a copy of every element
// and the number of windows fn saw.
func scanCopies(kv scanner, key string, window int64) ([][]byte, int, error) {
	var got [][]byte
	windows := 0
	err := kv.LRangeChunked(key, window, func(batch [][]byte) error {
		windows++
		for _, el := range batch {
			got = append(got, bytes.Clone(el))
		}
		return nil
	})
	return got, windows, err
}

func sameElements(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("scan read %d elements, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("element %d = %.40q, want %.40q", i, got[i], want[i])
		}
	}
}

// TestClusterScanAcrossMoved: a slot table that goes stale between two
// windows of one scan sends the next window to a node that answers
// MOVED; the scan chases it and yields every element exactly once.
func TestClusterScanAcrossMoved(t *testing.T) {
	addrs, _ := startCluster(t, 3)
	reg := telemetry.NewRegistry()
	cc := dialClusterTest(t, addrs, Options{Telemetry: reg})
	const key = "scan:moved"
	want := pushList(t, cc, key, 95)
	slot := SlotForKey(key)
	owner := cc.ownerOf(slot)
	var got [][]byte
	windows := 0
	err := cc.LRangeChunked(key, 10, func(batch [][]byte) error {
		windows++
		for _, el := range batch {
			got = append(got, bytes.Clone(el))
		}
		if windows == 3 {
			for _, a := range addrs {
				if a != owner {
					cc.setOwner(slot, a)
					break
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sameElements(t, got, want)
	if windows != 10 {
		t.Errorf("fn saw %d windows, want 10", windows)
	}
	if moved := reg.Snapshot().Counters["kv_cluster_client_moved_total"]; moved != 1 {
		t.Errorf("kv_cluster_client_moved_total = %d, want 1", moved)
	}
}

// TestScanRetriesDroppedWindow: the server's connection dies halfway
// through writing the second window; the client re-dials, reads the
// window again, and fn sees every window once.
func TestScanRetriesDroppedWindow(t *testing.T) {
	srv := NewServer(nil)
	defer srv.Close()
	const key = "scan:dropped"
	want := pushList(t, engineKV{srv.Engine()}, key, 120)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Ops on the first connection: read LRANGE, write window 1, read
	// LRANGE, write half of window 2 and close.
	faults := telemetry.NewRegistry()
	plan := faultnet.Plan{
		Script:     []faultnet.Action{faultnet.Pass, faultnet.Pass, faultnet.Pass, faultnet.Partial},
		FaultConns: 1,
		Telemetry:  faults,
	}
	if err := srv.Serve(plan.Listener(ln)); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	c, err := DialOptions(ln.Addr().String(), time.Second, Options{
		OpTimeout: time.Second, MaxRetries: 3, RetryBackoff: time.Millisecond, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, windows, err := scanCopies(c, key, 50)
	if err != nil {
		t.Fatal(err)
	}
	sameElements(t, got, want)
	if windows != 3 {
		t.Errorf("fn saw %d windows, want 3", windows)
	}
	if r := reg.Snapshot().Counters["kv_client_retries_total"]; r != 1 {
		t.Errorf("kv_client_retries_total = %d, want 1", r)
	}
	if p := faults.Snapshot().Counters[`faultnet_injected_total{action="partial"}`]; p != 1 {
		t.Errorf("%d partial writes injected, want 1", p)
	}
}

// engineKV pushes straight into an engine, so a fault plan's operation
// count starts with the client under test.
type engineKV struct{ *Engine }

func (e engineKV) RPush(key string, vals ...[]byte) (int64, error) {
	rep := e.Do("RPUSH", append([][]byte{[]byte(key)}, vals...)...)
	return rep.Int, rep.Err()
}

// TestScanCallbackMayCallClient: fn runs with no client lock held, so
// it may issue commands and a nested scan on the same client, and the
// nested scan leaves the outer batch intact.
func TestScanCallbackMayCallClient(t *testing.T) {
	addr, _ := startServer(t)
	addrs, _ := startCluster(t, 2)
	for name, kv := range map[string]scanner{
		"Client":        dialTest(t, addr),
		"ClusterClient": dialClusterTest(t, addrs, Options{}),
	} {
		t.Run(name, func(t *testing.T) {
			const key = "scan:reentrant"
			want := pushList(t, kv, key, 40)
			var got [][]byte
			err := kv.LRangeChunked(key, 16, func(batch [][]byte) error {
				before := make([][]byte, len(batch))
				for i, el := range batch {
					before[i] = bytes.Clone(el)
				}
				if n, err := kv.LLen(key); err != nil || n != int64(len(want)) {
					return fmt.Errorf("LLEN inside fn = %d, %v", n, err)
				}
				inner, _, err := scanCopies(kv, key, 7)
				if err != nil {
					return err
				}
				sameElements(t, inner, want)
				sameElements(t, batch, before)
				got = append(got, before...)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			sameElements(t, got, want)
		})
	}
}

// TestConcurrentScansOneClient: scans sharing one client each read
// into a buffer no other scan holds (run under -race).
func TestConcurrentScansOneClient(t *testing.T) {
	addr, _ := startServer(t)
	addrs, _ := startCluster(t, 2)
	for name, kv := range map[string]scanner{
		"Client":        dialTest(t, addr),
		"ClusterClient": dialClusterTest(t, addrs, Options{}),
	} {
		t.Run(name, func(t *testing.T) {
			lists := make([][][]byte, 4)
			for g := range lists {
				lists[g] = pushList(t, kv, fmt.Sprintf("scan:concurrent:%d", g), 50+30*g)
			}
			var wg sync.WaitGroup
			errs := make([]error, len(lists))
			for g := range lists {
				wg.Add(1)
				go func() {
					defer wg.Done()
					key := fmt.Sprintf("scan:concurrent:%d", g)
					for range 10 {
						got, _, err := scanCopies(kv, key, int64(8+g))
						if err == nil && len(got) != len(lists[g]) {
							err = fmt.Errorf("%s: %d elements, want %d", key, len(got), len(lists[g]))
						}
						for i := 0; err == nil && i < len(got); i++ {
							if !bytes.Equal(got[i], lists[g][i]) {
								err = fmt.Errorf("%s: element %d = %.40q", key, i, got[i])
							}
						}
						if err != nil {
							errs[g] = err
							return
						}
					}
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestRepeatScanAllocatesWhatFnKeeps: once a client's window buffer
// has grown to the largest window, scanning a list again allocates a
// few headers per scan, nothing per window or element.
func TestRepeatScanAllocatesWhatFnKeeps(t *testing.T) {
	addr, _ := startServer(t)
	c := dialTest(t, addr)
	const key, n, window = "scan:allocs", 2000, 100
	want := pushList(t, c, key, n)
	payload := 0
	for _, v := range want {
		payload += len(v)
	}
	scan := func() {
		read := 0
		if err := c.LRangeChunked(key, window, func(batch [][]byte) error {
			read += len(batch)
			return nil
		}); err != nil || read != n {
			t.Fatalf("scan read %d elements, %v", read, err)
		}
	}
	scan()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(10, scan)
	runtime.ReadMemStats(&after)
	perScan := (after.TotalAlloc - before.TotalAlloc) / 11
	if allocs >= n/window {
		t.Errorf("a repeat scan of %d windows allocates %.0f times", n/window, allocs)
	}
	if perScan > uint64(payload)/100 {
		t.Errorf("a repeat scan of %d bytes allocates %d bytes", payload, perScan)
	}
}
