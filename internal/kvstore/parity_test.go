package kvstore

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pareto/internal/telemetry"
)

// storeClient is KV plus the one typed command outside it; *Client and
// *ClusterClient both get the whole set from the embedded keyed.
type storeClient interface {
	KV
	LRangeFrom(key string, start, window int64, fn func(batch [][]byte) error) (int64, error)
}

// kvScript runs one fixed sequence touching every KV and Pipe method
// and returns a transcript of every result and error.
func kvScript(kv storeClient) []string {
	var log []string
	note := func(op string, v any, err error) {
		switch {
		case errors.Is(err, ErrNil):
			log = append(log, op+" → ErrNil")
		case err != nil:
			log = append(log, op+" → error: "+err.Error())
		default:
			log = append(log, fmt.Sprintf("%s → %q", op, fmt.Sprint(v)))
		}
	}
	window := func(batch [][]byte) error {
		log = append(log, fmt.Sprintf("  batch %q", batch))
		return nil
	}

	v, err := kv.Get("s")
	note("Get missing", v, err)
	note("Set", nil, kv.Set("s", []byte("hello")))
	v, err = kv.Get("s")
	note("Get", v, err)
	n, err := kv.Incr("n")
	note("Incr", n, err)
	n, err = kv.Incr("n")
	note("Incr again", n, err)
	n, err = kv.Incr("s")
	note("Incr non-integer", n, err)
	n, err = kv.RPush("l", []byte("a"), []byte("b"), []byte(""), []byte("d"), []byte("e"))
	note("RPush", n, err)
	n, err = kv.LLen("l")
	note("LLen", n, err)
	n, err = kv.LLen("missing")
	note("LLen missing", n, err)
	els, err := kv.LRange("l", 1, -2)
	note("LRange", els, err)
	els, err = kv.LRange("missing", 0, -1)
	note("LRange missing", els, err)
	note("LRangeChunked", nil, kv.LRangeChunked("l", 2, window))
	note("LRangeChunked bad window", nil, kv.LRangeChunked("l", 0, window))
	stop := errors.New("stop")
	note("LRangeChunked stopped", nil, kv.LRangeChunked("l", 2, func([][]byte) error { return stop }))
	n, err = kv.LRangeFrom("l", 3, 4, window)
	note("LRangeFrom", n, err)
	v, err = kv.Get("l")
	note("Get on a list (WRONGTYPE)", v, err)
	n, err = kv.RPush("s", []byte("x"))
	note("RPush on a string (WRONGTYPE)", n, err)
	n, err = kv.LLen("s")
	note("LLen on a string (WRONGTYPE)", n, err)
	els, err = kv.LRange("s", 0, -1)
	note("LRange on a string (WRONGTYPE)", els, err)
	note("Ping", nil, kv.Ping())

	_, err = kv.Pipe(0)
	note("Pipe bad width", nil, err)
	p, err := kv.Pipe(2)
	note("Pipe", nil, err)
	p.Expect(5)
	note("Send SET", nil, p.Send("SET", []byte("p"), []byte("piped")))
	note("Send GET", nil, p.Send("GET", []byte("p")))
	note("Send RPUSH", nil, p.Send("RPUSH", []byte("l"), []byte("f")))
	note("Send GET missing", nil, p.Send("GET", []byte("missing")))
	note("Send INCR on a list", nil, p.Send("INCR", []byte("l")))
	reps, err := p.Finish()
	note("Finish", reps, err)
	reps, err = p.Finish()
	note("Finish empty", reps, err)

	n, err = kv.Del("s", "l", "missing", "n")
	note("Del", n, err)
	n, err = kv.Del()
	note("Del no keys", n, err)
	note("Close", nil, kv.Close())
	_, err = kv.Get("s")
	note("Get after Close", nil, err)
	return log
}

// TestClientClusterClientParity: the typed commands are written once,
// so one store must be indistinguishable through a Client and through
// a ClusterClient whose cluster has that store as its only owner —
// same results, same errors, same commands reaching the server.
func TestClientClusterClientParity(t *testing.T) {
	serve := func(clustered bool) (string, *Server, *telemetry.Registry) {
		reg := telemetry.NewRegistry()
		srv := NewServer(nil)
		srv.SetTelemetry(reg)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		if clustered {
			if err := srv.SetClusterSlots(addr, SplitSlots([]string{addr})); err != nil {
				t.Fatal(err)
			}
		}
		return addr, srv, reg
	}
	// Server.Close waits for the connection goroutines, whose teardown
	// publishes their last command counts.
	counts := func(srv *Server, reg *telemetry.Registry) map[string]int64 {
		srv.Close()
		out := make(map[string]int64)
		for name, v := range reg.Snapshot().Counters {
			if label, ok := strings.CutPrefix(name, "kv_server_commands_total"); ok && v != 0 {
				out[label] = v
			}
		}
		return out
	}

	addr, srv, reg := serve(false)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	single := kvScript(c)
	singleCounts := counts(srv, reg)

	addr, srv, reg = serve(true)
	cc, err := DialCluster([]string{addr}, time.Second, Options{})
	if err != nil {
		t.Fatal(err)
	}
	routed := kvScript(cc)
	routedCounts := counts(srv, reg)

	if len(single) != len(routed) {
		t.Fatalf("transcripts have %d and %d lines", len(single), len(routed))
	}
	for i := range single {
		if single[i] != routed[i] {
			t.Errorf("line %d:\n  Client:        %s\n  ClusterClient: %s", i, single[i], routed[i])
		}
	}
	// The script must have reached the behaviours it is named for.
	transcript := strings.Join(single, "\n")
	for _, want := range []string{"ErrNil", "WRONGTYPE", ErrClientClosed.Error(), `batch ["a" "b"]`} {
		if !strings.Contains(transcript, want) {
			t.Errorf("transcript never shows %q:\n%s", want, transcript)
		}
	}
	// The cluster client's one extra command is the CLUSTER SLOTS that
	// primed its table at dial.
	singleCounts[`{cmd="other"}`]++
	if fmt.Sprint(singleCounts) != fmt.Sprint(routedCounts) {
		t.Errorf("server command counts differ:\n  Client:        %v (+1 other)\n  ClusterClient: %v", singleCounts, routedCounts)
	}
}
