package kvstore

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBarrierValidation(t *testing.T) {
	addr, _ := startServer(t)
	c := dialTest(t, addr)
	if _, err := NewBarrier(c, "b", 0); err == nil {
		t.Error("0 parties accepted")
	}
	if _, err := NewBarrier(c, "", 2); err == nil {
		t.Error("empty name accepted")
	}
}

func TestBarrierSingleParty(t *testing.T) {
	addr, _ := startServer(t)
	c := dialTest(t, addr)
	b, err := NewBarrier(c, "solo", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := b.Await(); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
}

func TestBarrierSynchronizesPhases(t *testing.T) {
	addr, _ := startServer(t)
	const parties = 6
	const rounds = 4
	var phase [rounds]int32
	var wg sync.WaitGroup
	errCh := make(chan error, parties)
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c, err := Dial(addr, time.Second)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			b, err := NewBarrier(c, "phases", parties)
			if err != nil {
				errCh <- err
				return
			}
			for r := 0; r < rounds; r++ {
				atomic.AddInt32(&phase[r], 1)
				if err := b.Await(); err != nil {
					errCh <- err
					return
				}
				// After the barrier, every party must have bumped this
				// round's counter.
				if got := atomic.LoadInt32(&phase[r]); got != parties {
					errCh <- errors.New("barrier released early")
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestBarrierTimeout(t *testing.T) {
	addr, _ := startServer(t)
	c := dialTest(t, addr)
	b, err := NewBarrier(c, "lonely", 2)
	if err != nil {
		t.Fatal(err)
	}
	b.Timeout = 50 * time.Millisecond
	start := time.Now()
	err = b.Await()
	if !errors.Is(err, ErrBarrierTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("timeout took far too long")
	}
}

func TestBarrierGenerationsIndependent(t *testing.T) {
	// A straggler arriving while others are already in the next
	// generation must not corrupt either round (keys are per-gen).
	addr, _ := startServer(t)
	c1 := dialTest(t, addr)
	c2 := dialTest(t, addr)
	b1, _ := NewBarrier(c1, "gen", 2)
	b2, _ := NewBarrier(c2, "gen", 2)
	done := make(chan error, 1)
	go func() {
		// Party 2 runs two rounds back to back.
		if err := b2.Await(); err != nil {
			done <- err
			return
		}
		done <- b2.Await()
	}()
	if err := b1.Await(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // party 2 now waits in round 2
	if err := b1.Await(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestBarrierArriveReleasesPeers(t *testing.T) {
	addr, _ := startServer(t)
	c1 := dialTest(t, addr)
	c2 := dialTest(t, addr)
	b1, err := NewBarrier(c1, "abandon", 2)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := NewBarrier(c2, "abandon", 2)
	if err != nil {
		t.Fatal(err)
	}
	b2.Timeout = 5 * time.Second
	done := make(chan error, 1)
	go func() { done <- b2.Await() }()
	time.Sleep(20 * time.Millisecond)
	// Party 1 aborts but still arrives: party 2 must unblock promptly.
	if err := b1.Arrive(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("peer got %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("peer stayed blocked after Arrive")
	}
	// Generations advanced consistently: the next round still works.
	go func() { done <- b2.Await() }()
	if err := b1.Arrive(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("second round: %v", err)
	}
}

// TestBarrierStateLivesOnTheStore pins what the doc comment says: the
// barrier's state is its keys, so a name reused without Clear starts
// released; Clear removes every key the value touched, after which the
// name waits again, and is a no-op on a value that touched none.
func TestBarrierStateLivesOnTheStore(t *testing.T) {
	addr, _ := startServer(t)
	c1 := dialTest(t, addr)
	c2 := dialTest(t, addr)
	dbsize := func() int64 {
		t.Helper()
		rep, err := c1.Do("DBSIZE")
		if err != nil || rep.Err() != nil {
			t.Fatalf("DBSIZE: %v %v", err, rep.Err())
		}
		return rep.Int
	}
	empty := dbsize()
	unused, _ := NewBarrier(c1, "reused", 2)
	if err := unused.Clear(); err != nil {
		t.Fatalf("Clear before any generation: %v", err)
	}
	round := func() (*Barrier, error) {
		b1, _ := NewBarrier(c1, "reused", 2)
		b2, _ := NewBarrier(c2, "reused", 2)
		done := make(chan error, 1)
		go func() { done <- b2.Await() }()
		err := b1.Await()
		if err2 := <-done; err == nil {
			err = err2
		}
		return b1, err
	}
	b, err := round()
	if err != nil {
		t.Fatal(err)
	}

	// Reused without Clear: one party alone is released at once.
	alone, _ := NewBarrier(c1, "reused", 2)
	alone.Timeout = 50 * time.Millisecond
	if err := alone.Await(); err != nil {
		t.Fatalf("reused name did not start released: %v", err)
	}
	// Cleared: the same party alone now waits out its timeout.
	if err := b.Clear(); err != nil {
		t.Fatal(err)
	}
	if got := dbsize(); got != empty {
		t.Fatalf("Clear left %d keys", got-empty)
	}
	alone, _ = NewBarrier(c1, "reused", 2)
	alone.Timeout = 50 * time.Millisecond
	if err := alone.Await(); !errors.Is(err, ErrBarrierTimeout) {
		t.Fatalf("cleared name: %v, want timeout", err)
	}

	if _, err := round(); err != nil {
		t.Fatalf("round after Clear: %v", err)
	}
}
