package faultnet

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// pipePair returns the two ends of an in-memory connection, the first
// wrapped with the plan.
func pipePair(t *testing.T, p Plan) (net.Conn, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return p.Wrap(a, 0), b
}

func TestScriptedDrop(t *testing.T) {
	c, peer := pipePair(t, Plan{Script: []Action{Pass, Drop}})
	go func() {
		buf := make([]byte, 2)
		io.ReadFull(peer, buf)
	}()
	if _, err := c.Write([]byte("ok")); err != nil {
		t.Fatalf("scripted Pass failed: %v", err)
	}
	if _, err := c.Write([]byte("no")); !errors.Is(err, ErrInjected) {
		t.Fatalf("scripted Drop: got %v, want ErrInjected", err)
	}
	// Dropped connections stay dead.
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-drop read: got %v, want ErrInjected", err)
	}
}

func TestPartialWrite(t *testing.T) {
	c, peer := pipePair(t, Plan{Script: []Action{Partial}})
	got := make(chan []byte, 1)
	go func() {
		buf, _ := io.ReadAll(peer)
		got <- buf
	}()
	payload := []byte("0123456789")
	n, err := c.Write(payload)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("partial write err %v, want ErrInjected", err)
	}
	if n != len(payload)/2 {
		t.Fatalf("partial write sent %d bytes, want %d", n, len(payload)/2)
	}
	if buf := <-got; len(buf) != len(payload)/2 {
		t.Fatalf("peer received %d bytes, want %d", len(buf), len(payload)/2)
	}
}

func TestDropAfterOps(t *testing.T) {
	c, peer := pipePair(t, Plan{DropAfterOps: 2})
	go func() {
		buf := make([]byte, 2)
		io.ReadFull(peer, buf)
	}()
	for i := 0; i < 2; i++ {
		if _, err := c.Write([]byte("x")); err != nil {
			t.Fatalf("op %d before threshold failed: %v", i, err)
		}
	}
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("op past DropAfterOps: got %v, want ErrInjected", err)
	}
}

// TestSeededDeterminism checks that a connection's fault sequence is a
// pure function of (Seed, id): two conns with the same id draw the same
// actions, a different id draws a different sequence.
func TestSeededDeterminism(t *testing.T) {
	plan := Plan{Seed: 99, DropRate: 0.2, StallRate: 0.2, DelayRate: 0.2}
	seq := func(id int64) []Action {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		fc := plan.Wrap(a, id).(*faultConn)
		out := make([]Action, 64)
		for i := range out {
			out[i] = fc.next(false)
			fc.dropped = false // keep drawing past injected drops
		}
		return out
	}
	s1, s2, other := seq(3), seq(3), seq(4)
	same, diff := true, false
	for i := range s1 {
		if s1[i] != s2[i] {
			same = false
		}
		if s1[i] != other[i] {
			diff = true
		}
	}
	if !same {
		t.Error("same (Seed, id) produced different fault sequences")
	}
	if !diff {
		t.Error("different ids produced identical fault sequences")
	}
}

func TestWrapperFaultConnsLimit(t *testing.T) {
	wrap := Plan{Script: []Action{Drop}, FaultConns: 1}.wrapper()
	a1, b1 := net.Pipe()
	a2, b2 := net.Pipe()
	defer func() { a1.Close(); b1.Close(); a2.Close(); b2.Close() }()
	if _, ok := wrap(a1).(*faultConn); !ok {
		t.Error("first connection not wrapped")
	}
	if _, ok := wrap(a2).(*faultConn); ok {
		t.Error("connection past FaultConns wrapped")
	}
}

func TestListenerWrapsAccepted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fln := Plan{Script: []Action{Drop}}.Listener(ln)
	defer fln.Close()
	go func() {
		c, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second)
		if err == nil {
			defer c.Close()
			c.Read(make([]byte, 1))
		}
	}()
	conn, err := fln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("accepted conn not faulted: %v", err)
	}
}

func TestDelayPasses(t *testing.T) {
	c, peer := pipePair(t, Plan{Script: []Action{Delay}, Latency: 5 * time.Millisecond})
	go func() {
		buf := make([]byte, 2)
		io.ReadFull(peer, buf)
	}()
	start := time.Now()
	if _, err := c.Write([]byte("ok")); err != nil {
		t.Fatalf("delayed write failed: %v", err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Errorf("delay not applied: %v", d)
	}
}
