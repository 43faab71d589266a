package kvstore

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// refReplayAOF is replay that applies every complete record in order
// as it reads it — the loop ReplayAOF ran before it learned to defer
// pushes, kept verbatim as the oracle ReplayAOF must match.
func refReplayAOF(path string, e *Engine) (n int, end int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	if err := checkAOFHeader(f, fi.Size()); err != nil {
		return 0, 0, err
	}
	start := int64(aofHeaderLen)
	if fi.Size() < start {
		return 0, 0, nil
	}
	if _, err := f.Seek(start, io.SeekStart); err != nil {
		return 0, 0, err
	}
	cr := &countingReader{r: f}
	br := bufio.NewReaderSize(cr, 64<<10)
	var cb CommandBuffer
	end = start
	for {
		cmd, args, err := ReadCommandInto(br, &cb, MaxBulkLen)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				// Clean end, or a record truncated mid-payload: every
				// complete record before it has been applied.
				return n, end, nil
			}
			return n, end, fmt.Errorf("kvstore: aof replay at record %d: %w", n+1, err)
		}
		if rep := e.doID(cb.id, cmd, args); rep.Type == ErrorReply {
			return n, end, fmt.Errorf("kvstore: aof replay at record %d: %s", n+1, rep.Str)
		}
		n++
		end = start + cr.n - int64(br.Buffered())
	}
}

// engineDump renders every key the engine holds: a string's value, or
// a list's values segment by segment, so two engines compare equal
// only if they hold the same values laid out the same way.
func engineDump(e *Engine) map[string]string {
	out := make(map[string]string)
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.RLock()
		for k, v := range s.strings {
			out[k] = "string " + strconv.Quote(string(v))
		}
		for k, l := range s.lists {
			var b strings.Builder
			b.WriteString("list")
			for _, seg := range l.segs {
				b.WriteString(" |")
				for _, v := range seg {
					b.WriteString(" " + strconv.Quote(string(v)))
				}
			}
			out[k] = b.String()
		}
		s.mu.RUnlock()
	}
	return out
}

// sameReplay replays the log at path with ReplayAOF and refReplayAOF,
// each into an engine prepare fills, and reports how they differ: in
// n, end, the error, or what the engines hold.
func sameReplay(path string, prepare func(*Engine)) error {
	e, ref := NewEngine(), NewEngine()
	prepare(e)
	prepare(ref)
	n, end, err := ReplayAOF(path, e)
	rn, rend, rerr := refReplayAOF(path, ref)
	if n != rn || end != rend || fmt.Sprint(err) != fmt.Sprint(rerr) {
		return fmt.Errorf("replay read %d records to %d (err %v), applying everything %d to %d (err %v)", n, end, err, rn, rend, rerr)
	}
	got, want := engineDump(e), engineDump(ref)
	for k, w := range want {
		if got[k] != w {
			return fmt.Errorf("key %q holds %s, applying everything %s", k, got[k], w)
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			return fmt.Errorf("key %q holds %s, applying everything drops it", k, g)
		}
	}
	return nil
}

// randomLog frames a seeded history of RPUSH, DEL, SET and INCR over a
// few keys, with pushes of one to a hundred and forty values, so runs
// span segments. About one record in thirty is one replay refuses (an
// INCR of a list, a push onto a string), so replay stops with pushes
// still deferred. It returns the records' bytes and where each ends.
func randomLog(rng *rand.Rand, records int) ([]byte, []int) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	keys := []string{"a", "b", "c", "d"}
	held := map[string]bool{} // key → holds a list
	var ends []int
	for i := 0; i < records; i++ {
		k := keys[rng.Intn(len(keys))]
		list, ok := held[k]
		refused := rng.Intn(30) == 0
		var cmd string
		var args [][]byte
		switch r := rng.Intn(100); {
		case refused && ok && list, r < 10 && !(ok && list):
			cmd, args = "INCR", [][]byte{[]byte(k)}
			if !ok {
				held[k] = false
			}
		case refused && ok || r < 55 && !(ok && !list):
			cmd, args = "RPUSH", [][]byte{[]byte(k)}
			for j := 1 + rng.Intn([]int{3, 3, 3, 20, 20, 140}[rng.Intn(6)]); j > 0; j-- {
				args = append(args, []byte(fmt.Sprintf("%s%d-%d", k, i, j)))
			}
			if !ok {
				held[k] = true
			}
		case r < 80:
			cmd, args = "DEL", [][]byte{[]byte(k)}
			delete(held, k)
			if rng.Intn(3) == 0 {
				k2 := keys[rng.Intn(len(keys))]
				args = append(args, []byte(k2))
				delete(held, k2)
			}
		default:
			cmd, args = "SET", [][]byte{[]byte(k), []byte(strconv.Itoa(rng.Intn(100)))}
			held[k] = false
		}
		if err := WriteCommand(w, cmd, args...); err != nil {
			panic(err)
		}
		w.Flush()
		ends = append(ends, buf.Len())
	}
	return buf.Bytes(), ends
}

// TestReplayMatchesApplyEverything holds ReplayAOF to refReplayAOF on
// seeded logs, each torn at every byte of its last three records: the
// same n, end and error, and the same engine contents. Odd seeds
// replay into an engine already holding a string under a key the log
// pushes to: a push onto it fails, deferred or not.
func TestReplayMatchesApplyEverything(t *testing.T) {
	dir := t.TempDir()
	// Logs that reach a deferred push's every way out, the rare ones
	// first: a push onto a key that turned string after its DEL, an
	// INCR or GET that reads deferred pushes, a DEL or SET that drops
	// them, pushes of two keys interleaved.
	for i, log := range [][]string{
		{"DEL k", "SET k v", "RPUSH k x"},
		{"DEL k", "INCR k", "RPUSH k x y"},
		{"DEL k", "RPUSH k x", "RPUSH j y", "INCR k", "RPUSH k z"},
		{"DEL k", "RPUSH k x", "GET k", "RPUSH k y z"},
		{"DEL k j", "RPUSH k a", "RPUSH j b", "RPUSH k c", "DEL k", "RPUSH j d", "SET j v", "RPUSH k e"},
		{"DEL k", "RPUSH k a b", "RPUSH k", "RPUSH k c"},
	} {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		for _, rec := range log {
			f := strings.Fields(rec)
			args := make([][]byte, len(f)-1)
			for j := range args {
				args[j] = []byte(f[j+1])
			}
			WriteCommand(w, f[0], args...)
		}
		w.Flush()
		path := filepath.Join(dir, fmt.Sprintf("log%d.aof", i))
		for cut := buf.Len(); cut >= 0; cut-- {
			if err := os.WriteFile(path, append([]byte(aofHeader), buf.Bytes()[:cut]...), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := sameReplay(path, func(*Engine) {}); err != nil {
				t.Fatalf("log %q cut at byte %d: %v", log, cut, err)
			}
		}
	}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		body, ends := randomLog(rng, 8+rng.Intn(25))
		prepare := func(e *Engine) {
			if seed%2 == 1 {
				e.Do("SET", []byte("c"), []byte("held"))
			}
		}
		path := filepath.Join(dir, fmt.Sprintf("seed%d.aof", seed))
		from := ends[len(ends)-3] // the last two records
		if err := os.WriteFile(path, append([]byte(aofHeader), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		for cut := len(body); cut >= from; cut-- {
			if err := os.Truncate(path, int64(aofHeaderLen+cut)); err != nil {
				t.Fatal(err)
			}
			if err := sameReplay(path, prepare); err != nil {
				t.Fatalf("seed %d, log cut at byte %d of %d: %v", seed, cut, len(body), err)
			}
		}
	}
}

// TestReplaySkipsSupersededPush replays a partition rewritten the way
// a partition write rewrites it: a DEL, a 1 MiB RPUSH, a DEL that drops
// it, then a small RPUSH. The big push is counted but never built or
// copied, so replay allocates far less than the push carries.
func TestReplaySkipsSupersededPush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.aof")
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	big := [][]byte{[]byte("k")}
	for i := 0; i < 8192; i++ {
		big = append(big, bytes.Repeat([]byte{byte('a' + i%26)}, 128))
	}
	WriteCommand(w, "DEL", []byte("k"))
	WriteCommand(w, "RPUSH", big...)
	WriteCommand(w, "DEL", []byte("k"))
	WriteCommand(w, "RPUSH", []byte("k"), []byte("x"), []byte("y"))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append([]byte(aofHeader), buf.Bytes()...), 0o644); err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n, end, err := ReplayAOF(path, e)
	runtime.ReadMemStats(&m1)
	if err != nil || n != 4 || end != int64(aofHeaderLen+buf.Len()) {
		t.Fatalf("replay read %d records to %d (err %v), want 4 to %d", n, end, err, aofHeaderLen+buf.Len())
	}
	if got := engineDump(e)["k"]; got != `list | "x" "y"` {
		t.Fatalf("k holds %s after replay", got)
	}
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 256<<10 {
		t.Errorf("replay allocated %d bytes; a superseded 1 MiB push must not be built", alloc)
	}
}
