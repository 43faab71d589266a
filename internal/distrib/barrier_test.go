package distrib

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"pareto/internal/kvstore"
)

// recordKV is a store client that logs every keyed command the
// protocol sends through it, and each pipeline once by its key: one
// party's view of the wire, numbered by a counter all parties share.
type recordKV struct {
	*kvstore.Client
	seq *atomic.Int64
	log []recordedOp
}

// recordedOp is one keyed command and its place among every party's
// commands.
type recordedOp struct {
	seq      int64
	cmd, key string
}

func (r *recordKV) note(cmd, key string) {
	r.log = append(r.log, recordedOp{r.seq.Add(1), cmd, key})
}

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

// Pipe notes the pipeline's key once: every command of a key-bound
// pipeline names that key.
func (r *recordKV) Pipe(key string, width int) (*kvstore.Pipeline, error) {
	r.note("PIPE", key)
	return r.Client.Pipe(key, width)
}

// TestWorkersOnlyArriveAtSketchBarrier: on a clean run a worker
// registers at the sketch barrier with one INCR and never polls it, it
// reads the run's assignment with one GET sent after the coordinator's
// SET of it, it checks its shipped shard without an LLEN, and no party
// touches an abort key.
func TestWorkersOnlyArriveAtSketchBarrier(t *testing.T) {
	corpus := testCorpus(t, 0.0006)
	m, ws := startStore(t, 3)
	seq := new(atomic.Int64)
	master := &recordKV{Client: m, seq: seq}
	workers := make([]*recordKV, len(ws))
	for i, c := range ws {
		workers[i] = &recordKV{Client: c, seq: seq}
	}
	dist, report, err := StratifyDetailed(master, workers, corpus, fastFaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if report.TimedOut || len(report.RecoveredShards) != 0 || errors.Join(report.WorkerErrs...) != nil {
		t.Fatalf("clean run engaged recovery: %+v", report)
	}
	assertBitIdentical(t, dist, centralReference(t, corpus))
	isBarrier := func(key string) bool { return strings.HasPrefix(key, "__barrier:") }
	isAssign := func(key string) bool {
		return strings.HasPrefix(key, keyPrefix+":") && strings.HasSuffix(key, ":assign")
	}
	isAbort := func(key string) bool { return strings.HasSuffix(key, ":abort") }
	published := int64(-1)
	for _, op := range master.log {
		switch {
		case isAbort(op.key):
			t.Errorf("coordinator: %v", op)
		case op.cmd == "SET" && isAssign(op.key):
			if published >= 0 {
				t.Errorf("coordinator published twice: %v", op)
			}
			published = op.seq
		}
	}
	if published < 0 {
		t.Fatal("coordinator never SET the assignment")
	}
	for i, w := range workers {
		incrs, gets := 0, 0
		for _, op := range w.log {
			switch {
			case isAbort(op.key):
				t.Errorf("worker %d: %v", i, op)
			case op.cmd == "LLEN":
				t.Errorf("worker %d read a list's length: %v", i, op)
			case op.cmd == "INCR" && isBarrier(op.key):
				incrs++
			case op.cmd == "GET" && isBarrier(op.key):
				t.Errorf("worker %d polled the barrier: %v", i, op)
			case op.cmd == "GET" && isAssign(op.key):
				gets++
				if op.seq < published {
					t.Errorf("worker %d read the assignment (op %d) before it was published (op %d)", i, op.seq, published)
				}
			}
		}
		if incrs != 1 {
			t.Errorf("worker %d: %d INCRs on barrier keys, want 1", i, incrs)
		}
		if gets != 1 {
			t.Errorf("worker %d: %d GETs of the assignment, want 1", i, gets)
		}
	}
}
