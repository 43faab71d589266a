package distrib

import (
	"strings"
	"testing"

	"pareto/internal/kvstore"
)

// recordKV is a store client that logs every keyed command the
// protocol sends through it as "CMD key", pipelined ones included: one
// party's view of the wire.
type recordKV struct {
	*kvstore.Client
	log []string
}

func (r *recordKV) note(cmd, key string) { r.log = append(r.log, cmd+" "+key) }

func (r *recordKV) Get(key string) ([]byte, error) {
	r.note("GET", key)
	return r.Client.Get(key)
}

func (r *recordKV) Set(key string, val []byte) error {
	r.note("SET", key)
	return r.Client.Set(key, val)
}

func (r *recordKV) Del(keys ...string) (int64, error) {
	for _, k := range keys {
		r.note("DEL", k)
	}
	return r.Client.Del(keys...)
}

func (r *recordKV) Incr(key string) (int64, error) {
	r.note("INCR", key)
	return r.Client.Incr(key)
}

func (r *recordKV) LRangeChunked(key string, window int64, fn func(batch [][]byte) error) error {
	r.note("LRANGE", key)
	return r.Client.LRangeChunked(key, window, fn)
}

func (r *recordKV) LLen(key string) (int64, error) {
	r.note("LLEN", key)
	return r.Client.LLen(key)
}

func (r *recordKV) Pipe(width int) (kvstore.Pipe, error) {
	p, err := r.Client.Pipe(width)
	if err != nil {
		return nil, err
	}
	return recordPipe{Pipe: p, r: r}, nil
}

type recordPipe struct {
	kvstore.Pipe
	r *recordKV
}

func (p recordPipe) Send(cmd string, args ...[]byte) error {
	key := ""
	if len(args) > 0 {
		key = string(args[0])
	}
	p.r.note(cmd, key)
	return p.Pipe.Send(cmd, args...)
}

// TestWorkersOnlyArriveAtSketchBarrier: on a clean run a worker
// registers at the sketch barrier with one INCR and never polls it —
// its one wait is for the assignment — and no party touches a barrier
// abort key.
func TestWorkersOnlyArriveAtSketchBarrier(t *testing.T) {
	corpus := testCorpus(t, 0.0006)
	m, ws := startStore(t, 3)
	master := &recordKV{Client: m}
	workers := make([]*recordKV, len(ws))
	for i, c := range ws {
		workers[i] = &recordKV{Client: c}
	}
	dist, report, err := StratifyDetailed(master, workers, corpus, fastFaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if report.TimedOut || len(report.RecoveredShards) != 0 {
		t.Fatalf("clean run engaged recovery: %+v", report)
	}
	assertBitIdentical(t, dist, centralReference(t, corpus))
	isBarrier := func(key string) bool { return strings.HasPrefix(key, "__barrier:") }
	isAbort := func(key string) bool { return isBarrier(key) && strings.HasSuffix(key, ":abort") }
	for i, w := range workers {
		incrs := 0
		for _, op := range w.log {
			cmd, key, _ := strings.Cut(op, " ")
			switch {
			case isAbort(key):
				t.Errorf("worker %d: %s", i, op)
			case cmd == "INCR" && isBarrier(key):
				incrs++
			case cmd == "GET" && isBarrier(key):
				t.Errorf("worker %d polled the barrier: %s", i, op)
			}
		}
		if incrs != 1 {
			t.Errorf("worker %d: %d INCRs on barrier keys, want 1", i, incrs)
		}
	}
	for _, op := range master.log {
		if _, key, _ := strings.Cut(op, " "); isAbort(key) {
			t.Errorf("coordinator: %s", op)
		}
	}
}
