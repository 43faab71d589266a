package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// startServer spins up a server on an ephemeral port and returns its
// address plus a cleanup.
func startServer(t *testing.T) (string, *Server) {
	t.Helper()
	srv := NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, srv
}

func dialTest(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// dbsize round-trips DBSIZE, the probe a keyless command makes, and
// returns its integer reply.
func dbsize(c *Client) (int64, error) {
	rep, err := c.Do("DBSIZE")
	if err != nil {
		return 0, err
	}
	if rep.Type != Integer {
		return 0, fmt.Errorf("DBSIZE reply %+v, want an integer", rep)
	}
	return rep.Int, nil
}

func TestServerBasicRoundtrip(t *testing.T) {
	addr, _ := startServer(t)
	c := dialTest(t, addr)
	if n, err := dbsize(c); err != nil || n != 0 {
		t.Fatalf("DBSIZE of an empty store = %d, %v", n, err)
	}
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v" {
		t.Errorf("GET = %q", got)
	}
	if _, err := c.Get("missing"); !errors.Is(err, ErrNil) {
		t.Errorf("missing key error = %v", err)
	}
}

func TestServerListsAndCounters(t *testing.T) {
	addr, _ := startServer(t)
	c := dialTest(t, addr)
	if _, err := c.RPush("list", []byte("a"), []byte("b"), []byte("c")); err != nil {
		t.Fatal(err)
	}
	n, err := c.LLen("list")
	if err != nil || n != 3 {
		t.Fatalf("LLEN = %d, %v", n, err)
	}
	var els []string
	err = c.LRangeChunked("list", 2, func(batch [][]byte) error {
		for _, el := range batch {
			els = append(els, string(el))
		}
		return nil
	})
	if err != nil || len(els) != 3 || els[1] != "b" {
		t.Fatalf("LRANGE = %q, %v", els, err)
	}
	v, err := c.Incr("counter")
	if err != nil || v != 1 {
		t.Fatalf("INCR = %d, %v", v, err)
	}
	deleted, err := c.Del("list", "counter", "ghost")
	if err != nil || deleted != 2 {
		t.Fatalf("DEL = %d, %v", deleted, err)
	}
}

func TestServerBinarySafety(t *testing.T) {
	addr, _ := startServer(t)
	c := dialTest(t, addr)
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i % 256)
	}
	if err := c.Set("bin", payload); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("binary payload corrupted in transit")
	}
}

func TestServerPipelining(t *testing.T) {
	addr, _ := startServer(t)
	c := dialTest(t, addr)
	const n = 500
	for i := 0; i < n; i++ {
		if err := c.Send("SET", []byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	reps, err := c.FlushInto(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != n {
		t.Fatalf("%d replies, want %d", len(reps), n)
	}
	for i, r := range reps {
		if r.Str != "OK" {
			t.Fatalf("reply %d = %v", i, r)
		}
	}
	// Verify a value after the pipeline.
	got, err := c.Get("k250")
	if err != nil || string(got) != "v250" {
		t.Fatalf("k250 = %q, %v", got, err)
	}
}

func TestServerPipelineWidthWrapper(t *testing.T) {
	addr, _ := startServer(t)
	c := dialTest(t, addr)
	p, err := c.Pipe("pl", 16)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if err := p.Send("RPUSH", []byte("pl"), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	reps, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != n {
		t.Fatalf("%d replies, want %d", len(reps), n)
	}
	if reps[n-1].Int != n {
		t.Errorf("final length %d, want %d", reps[n-1].Int, n)
	}
	if _, err := c.Pipe("pl", 0); err == nil {
		t.Error("zero-width pipeline accepted")
	}
}

func TestServerDoAfterSendPreservesOrder(t *testing.T) {
	addr, _ := startServer(t)
	c := dialTest(t, addr)
	if err := c.Send("SET", []byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Send("INCR", []byte("a")); err != nil {
		t.Fatal(err)
	}
	// Do must drain the two pending replies and return its own.
	got, err := c.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "2" {
		t.Errorf("a = %q, want 2", got)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	addr, _ := startServer(t)
	const clients, per = 8, 200
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr, time.Second)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for j := 0; j < per; j++ {
				if _, err := c.Incr("shared"); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	c := dialTest(t, addr)
	got, err := c.Get("shared")
	if err != nil || string(got) != fmt.Sprintf("%d", clients*per) {
		t.Fatalf("shared = %q (%v), want %d", got, err, clients*per)
	}
}

func TestServerMalformedInputClosesConn(t *testing.T) {
	addr, _ := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GARBAGE\r\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, _ := conn.Read(buf)
	if n > 0 && buf[0] != '-' {
		t.Errorf("expected error reply, got %q", buf[:n])
	}
	// The connection should be closed after the error.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Error("connection stayed open after protocol error")
	}
}

func TestServerErrorRepliesSurfaceAsErrors(t *testing.T) {
	addr, _ := startServer(t)
	c := dialTest(t, addr)
	if _, err := c.RPush("s"); err == nil {
		// RPush with no values is a client-arity error at the server.
		t.Error("arity error not surfaced")
	}
	if err := c.Set("str", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LLen("str"); err == nil {
		t.Error("WRONGTYPE not surfaced")
	}
}

func TestServerCloseIdempotentAndRefusesNew(t *testing.T) {
	srv := NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if _, err := Dial(addr, 200*time.Millisecond); err == nil {
		t.Error("dial succeeded after close")
	}
	if _, err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Error("listen after close accepted")
	}
}

func TestServerSharedEngineEmbedding(t *testing.T) {
	// The same engine can serve in-process and remote users — the
	// framework embeds it for the local partition and serves remote
	// partitions over TCP.
	engine := NewEngine()
	srv := NewServer(engine)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	engine.Do("SET", []byte("local"), []byte("write"))
	c := dialTest(t, addr)
	got, err := c.Get("local")
	if err != nil || string(got) != "write" {
		t.Fatalf("remote read of local write = %q, %v", got, err)
	}
}

func BenchmarkServerPipelinedSet(b *testing.B) {
	srv := NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr, time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	val := bytes.Repeat([]byte("x"), 64)
	b.ResetTimer()
	const width = 64
	for i := 0; i < b.N; i += width {
		for j := 0; j < width && i+j < b.N; j++ {
			if err := c.Send("SET", []byte("k"), val); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := c.FlushInto(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServerUnpipelinedSet(b *testing.B) {
	srv := NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr, time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	val := bytes.Repeat([]byte("x"), 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Set("k", val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerLRange reads one whole list of 10,000 256-byte values
// per op over a live connection, in one LRangeChunked window larger
// than the list: the server frames the stored values as they are, and
// the client reads them into the window buffer it reuses.
func BenchmarkServerLRange(b *testing.B) {
	srv := NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr, time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	const n, size = 10000, 256
	vals := make([][]byte, n)
	for i := range vals {
		vals[i] = bytes.Repeat([]byte{byte('a' + i%26)}, size)
	}
	if _, err := c.RPush("l", vals...); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n * size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := 0
		err := c.LRangeChunked("l", n+1, func(batch [][]byte) error {
			got += len(batch)
			return nil
		})
		if err != nil || got != n {
			b.Fatalf("LRANGE: %d values, %v", got, err)
		}
	}
}

func TestClientLRangeChunked(t *testing.T) {
	addr, _ := startServer(t)
	c := dialTest(t, addr)
	const n = 1000
	var want [][]byte
	for i := 0; i < n; i += 100 {
		batch := make([][]byte, 0, 100)
		for j := i; j < i+100; j++ {
			batch = append(batch, []byte(fmt.Sprintf("el-%04d", j)))
		}
		want = append(want, batch...)
		if _, err := c.RPush("biglist", batch...); err != nil {
			t.Fatal(err)
		}
	}
	// A window that doesn't divide n exercises the ragged final batch.
	var got [][]byte
	batches := 0
	err := c.LRangeChunked("biglist", 64, func(batch [][]byte) error {
		batches++
		for _, b := range batch {
			got = append(got, append([]byte(nil), b...))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if batches != (n+63)/64 {
		t.Errorf("saw %d batches, want %d", batches, (n+63)/64)
	}
	if len(got) != n {
		t.Fatalf("streamed %d elements, want %d", len(got), n)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("element %d = %q, want %q", i, got[i], want[i])
		}
	}
	// Missing key streams zero batches without error.
	if err := c.LRangeChunked("nope", 64, func([][]byte) error {
		t.Error("callback invoked for missing key")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Callback errors abort the stream and surface.
	sentinel := errors.New("stop")
	if err := c.LRangeChunked("biglist", 64, func([][]byte) error {
		return sentinel
	}); !errors.Is(err, sentinel) {
		t.Errorf("callback error surfaced as %v", err)
	}
}
