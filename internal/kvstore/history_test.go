package kvstore

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
	"time"
)

// histValue is one key of histModel: a string, or a list of items.
type histValue struct {
	list  bool
	str   string
	items []string
}

// histModel is the oracle TestAOFHistoryMatchesModel checks the store
// against: plain Go values for every key the store must hold, changed
// only by writes the server acknowledged. It shares no code with
// Engine — the rules below are Redis's, written out again.
type histModel map[string]histValue

// apply predicts the reply to one write and, when the store must
// accept it, applies it. ok=false means the store must refuse the
// command (wrong type, not an integer) and the model is unchanged;
// n is the integer reply of the commands that return one.
func (m histModel) apply(cmd string, args []string) (n int64, ok bool) {
	switch cmd {
	case "SET":
		m[args[0]] = histValue{str: args[1]}
	case "DEL":
		for _, k := range args {
			if _, held := m[k]; held {
				delete(m, k)
				n++
			}
		}
	case "INCR":
		v, held := m[args[0]]
		if v.list {
			return 0, false
		}
		if held {
			cur, err := strconv.ParseInt(v.str, 10, 64)
			if err != nil {
				return 0, false
			}
			n = cur
		}
		n++
		m[args[0]] = histValue{str: strconv.FormatInt(n, 10)}
	case "RPUSH":
		v, held := m[args[0]]
		if held && !v.list {
			return 0, false
		}
		items := append(slices.Clone(v.items), args[1:]...)
		m[args[0]] = histValue{list: true, items: items}
		n = int64(len(items))
	default:
		panic("histModel: no rule for " + cmd)
	}
	return n, true
}

// lrange is LRANGE's window over items: negative bounds count from
// the end, and the window is clipped to the list.
func (v histValue) lrange(start, stop int) []string {
	n := len(v.items)
	if start < 0 {
		start += n
	}
	if stop < 0 {
		stop += n
	}
	start, stop = max(start, 0), min(stop, n-1)
	if start > stop {
		return []string{}
	}
	return v.items[start : stop+1]
}

// TestAOFHistoryMatchesModel drives a real Server with an AOF through
// a seeded random history of writes and crashes, and after every
// restart requires DBSIZE and every key to equal histModel: each list
// by LLEN, whole, and through random LRANGE windows, single elements
// among them, with bounds negative and out of range. Pushes carry from
// one to a few hundred values, so lists span many segments with partly
// filled ends.
// The crashes are the two the durability design answers:
//
//   - Kill: the process dies; acknowledged writes were fsynced, and
//     replay must apply each exactly once (INCR and RPUSH would show
//     a record applied twice or dropped).
//   - A torn record behind the last acknowledged one: a write the
//     server never acknowledged, cut off mid-frame. Restart must drop
//     it and truncate it away, or the writes after the restart land
//     behind bytes the next replay cannot parse.
func TestAOFHistoryMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		runAOFHistory(t, seed, 300)
	}
}

func runAOFHistory(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	aof := filepath.Join(dir, "node.aof")
	model := make(histModel)
	keys := []string{"a", "b", "c", "d", "e", "f"}
	word := func() string {
		if rng.Intn(2) == 0 {
			return strconv.Itoa(rng.Intn(40) - 10)
		}
		b := make([]byte, 1+rng.Intn(6))
		for i := range b {
			b[i] = 'a' + byte(rng.Intn(26))
		}
		return string(b)
	}

	var srv *Server
	var c *Client
	step := 0
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
	}
	do := func(cmd string, args ...string) Reply {
		t.Helper()
		bs := make([][]byte, len(args))
		for i, a := range args {
			bs[i] = []byte(a)
		}
		rep, err := c.Do(cmd, bs...)
		if err != nil {
			fail("%s %q: %v", cmd, args, err)
		}
		return rep
	}
	// restart brings a fresh server up on the files and checks it
	// against the model.
	restart := func() {
		t.Helper()
		srv = NewServer(nil)
		if err := srv.EnableAOF(aof, time.Microsecond); err != nil {
			fail("replay aof: %v", err)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			fail("listen: %v", err)
		}
		if c, err = Dial(addr, time.Second); err != nil {
			fail("dial: %v", err)
		}
		if rep := do("DBSIZE"); rep.Type != Integer || rep.Int != int64(len(model)) {
			fail("DBSIZE = %v after restart, model holds %d keys", rep, len(model))
		}
		for k, v := range model {
			if !v.list {
				if rep := do("GET", k); rep.Type != BulkString || string(rep.Bulk) != v.str {
					fail("GET %s = %v after restart, model %q", k, rep, v.str)
				}
				continue
			}
			n := len(v.items)
			if rep := do("LLEN", k); rep.Type != Integer || rep.Int != int64(n) {
				fail("LLEN %s = %v after restart, model %d", k, rep, n)
			}
			bound := func() int { return rng.Intn(2*n+11) - n - 5 }
			for w := 0; w < 6; w++ {
				start, stop := 0, -1
				if w > 0 {
					start = bound()
					stop = start // one element, or none out of range
					if w%2 == 0 {
						stop = bound()
					}
				}
				rep := do("LRANGE", k, strconv.Itoa(start), strconv.Itoa(stop))
				got := make([]string, len(rep.Array))
				for i, el := range rep.Array {
					got[i] = string(el.Bulk)
				}
				if want := v.lrange(start, stop); rep.Type != Array || !slices.Equal(got, want) {
					fail("LRANGE %s %d %d = %v %q after restart, model %q", k, start, stop, rep, got, want)
				}
			}
		}
	}
	kill := func() {
		c.Close()
		srv.Kill()
	}
	restart()
	t.Cleanup(kill) // a failed step leaves the last server running
	var kills, torn int
	for step = 0; step < steps; step++ {
		switch r := rng.Intn(100); {
		case r < 88:
			var cmd string
			var args []string
			k := keys[rng.Intn(len(keys))]
			switch w := rng.Intn(100); {
			case w < 25:
				cmd, args = "SET", []string{k, word()}
			case w < 40:
				cmd, args = "DEL", []string{k, keys[rng.Intn(len(keys))]}
			case w < 65:
				cmd, args = "INCR", []string{k}
			default:
				cmd, args = "RPUSH", []string{k}
				for n := 1 + rng.Intn([]int{3, 40, 300}[rng.Intn(3)]); n > 0; n-- {
					args = append(args, word())
				}
			}
			rep := do(cmd, args...)
			n, ok := model.apply(cmd, args)
			switch {
			case rep.Type == ErrorReply && ok:
				fail("%s %q refused (%s), model accepts it", cmd, args, rep.Str)
			case rep.Type == ErrorReply: // refused by both; nothing changed
			case !ok:
				fail("%s %q acknowledged (%v), model refuses it", cmd, args, rep)
			case rep.Type == Integer && rep.Int != n:
				fail("%s %q = %d, model %d", cmd, args, rep.Int, n)
			case rep.Type != Integer && (rep.Type != SimpleString || rep.Str != "OK"):
				fail("%s %q = %v", cmd, args, rep)
			}
		case r < 96:
			kill()
			restart()
			kills++
		default:
			kill()
			appendTornRecord(t, rng, aof, keys)
			restart()
			torn++
		}
	}
	kill()
	restart()
	kill()
	if kills == 0 || torn == 0 {
		t.Fatalf("seed %d: %d kills, %d torn-tail crashes; want each", seed, kills, torn)
	}
}

// appendTornRecord writes a proper prefix of one framed write command
// to the end of the log: the bytes a crash leaves of a record whose
// write was never acknowledged.
func appendTornRecord(t *testing.T, rng *rand.Rand, path string, keys []string) {
	t.Helper()
	var frame bytes.Buffer
	w := bufio.NewWriter(&frame)
	k := []byte(keys[rng.Intn(len(keys))])
	if err := WriteCommand(w, []string{"DEL", "RPUSH", "SET"}[rng.Intn(3)], k, []byte("torn-value")); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(frame.Bytes()[:1+rng.Intn(frame.Len()-1)]); err != nil {
		t.Fatal(err)
	}
}
