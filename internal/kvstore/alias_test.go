package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// aliasState is one value a key of TestAliasedRepliesMatchModel can
// hold: absent, a string, or generation gen of a list with n elements.
// A list's elements are a function of (key, gen, index), so the state
// alone says what every LRANGE window must read.
type aliasState struct {
	kind byte // 0 absent, 's' string, 'l' list
	str  string
	gen  int
	n    int
}

// aliasElem is element j of generation gen of key's list: 1 to 600
// bytes, so payloads fall on both sides of respZeroCopyMin and some
// replies are written from the stored bytes in place.
func aliasElem(key string, gen, j int) []byte {
	tag := fmt.Sprintf("%s/%d/%d;", key, gen, j)
	size := 1 + (gen*7919+j*104729+len(key)*31)%600
	return bytes.Repeat([]byte(tag), size/len(tag)+1)[:size]
}

// aliasKey is one key's history: states[v] is the key's value after
// its writer's v-th write (states[0] is absent). The writer appends a
// state before it sends the write (issued) and publishes its index
// once acknowledged (acked), so a reply served between a reader's
// load of acked and its later load of issued equals one of those
// states.
type aliasKey struct {
	name   string
	mu     sync.Mutex
	states []aliasState
	issued atomic.Int64
	acked  atomic.Int64
}

func (k *aliasKey) window(lo, hi int64) []aliasState {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]aliasState(nil), k.states[lo:hi+1]...)
}

// want renders the reply st must produce for a GET or for LRANGE key
// start stop.
func (k *aliasKey) want(st aliasState, get bool, start, stop int) Reply {
	wrong := Reply{Type: ErrorReply, Str: wrongType().Str}
	if get {
		switch st.kind {
		case 0:
			return nilReply()
		case 'l':
			return wrong
		}
		return bulkReply([]byte(st.str))
	}
	switch st.kind {
	case 's':
		return wrong
	case 0:
		return Reply{Type: Array, Array: []Reply{}}
	}
	if start < 0 {
		start += st.n
	}
	if stop < 0 {
		stop += st.n
	}
	start, stop = max(start, 0), min(stop, st.n-1)
	out := []Reply{}
	for j := start; j <= stop; j++ {
		out = append(out, bulkReply(aliasElem(k.name, st.gen, j)))
	}
	return Reply{Type: Array, Array: out}
}

func sameReply(a, b Reply) bool {
	if a.Type != b.Type || a.Str != b.Str || a.Int != b.Int || !bytes.Equal(a.Bulk, b.Bulk) || len(a.Array) != len(b.Array) {
		return false
	}
	for i := range a.Array {
		if !sameReply(a.Array[i], b.Array[i]) {
			return false
		}
	}
	return true
}

// aliasWrite issues the writer's next write to k: pushes of 1 to 4
// values (which extend the tail segment) or 20 to 200 (a new one),
// DEL, SET over any value, INCR of a counter. It returns the command,
// its arguments, the state it leads to and its expected reply.
func aliasWrite(rng *rand.Rand, k *aliasKey, cur aliasState, gens *int) (string, [][]byte, aliasState, Reply) {
	key := []byte(k.name)
	r := rng.Intn(10)
	if cur.kind != 's' && r < 6 {
		next := cur
		if cur.kind == 0 {
			*gens++
			next = aliasState{kind: 'l', gen: *gens}
		}
		batch := 1 + rng.Intn(4)
		if r == 5 {
			batch = 20 + rng.Intn(181)
		}
		args := [][]byte{key}
		for j := 0; j < batch; j++ {
			args = append(args, aliasElem(k.name, next.gen, next.n+j))
		}
		next.n += batch
		return "RPUSH", args, next, intReply(int64(next.n))
	}
	if n, err := strconv.ParseInt(cur.str, 10, 64); cur.kind == 's' && err == nil && r < 4 {
		return "INCR", [][]byte{key}, aliasState{kind: 's', str: strconv.FormatInt(n+1, 10)}, intReply(n + 1)
	}
	if cur.kind != 0 && r < 7 {
		return "DEL", [][]byte{key}, aliasState{}, intReply(1)
	}
	val := strconv.Itoa(rng.Intn(1000))
	if rng.Intn(2) == 0 {
		val = string(aliasElem("set:"+k.name, rng.Intn(1000), 0))
	}
	return "SET", [][]byte{key, []byte(val)}, aliasState{kind: 's', str: val}, okReply()
}

// TestAliasedRepliesMatchModel holds the server's GET and LRANGE
// replies, which are written from the stored values without a copy, to
// a per-key model while other connections write the same keys: pushes
// that extend a list's tail segment or add one, DEL and re-push, SET
// and INCR over lists and strings alike. Readers pipeline random GETs
// and LRANGE windows; every reply must equal a state its key held
// while the reply was in flight, and every reply must still read the
// same after all the writes that followed it.
func TestAliasedRepliesMatchModel(t *testing.T) {
	addr, _ := startServer(t)
	const nKeys, writes, readers, batches = 4, 250, 3, 120
	keys := make([]*aliasKey, nKeys)
	for i := range keys {
		keys[i] = &aliasKey{name: fmt.Sprintf("alias:%d", i), states: []aliasState{{}}}
	}
	var writersDone atomic.Int64
	var wg sync.WaitGroup
	for i, k := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer writersDone.Add(1)
			c, err := Dial(addr, time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(i) + 1))
			gens := 0
			for w := 0; w < writes; w++ {
				cur := k.states[len(k.states)-1]
				cmd, args, next, want := aliasWrite(rng, k, cur, &gens)
				k.mu.Lock()
				k.states = append(k.states, next)
				k.mu.Unlock()
				k.issued.Add(1)
				rep, err := c.Do(cmd, args...)
				if err != nil || !sameReply(rep, want) {
					t.Errorf("%s %s: got %v (%v), want %v", cmd, k.name, rep, err, want)
					return
				}
				k.acked.Add(1)
			}
		}()
	}
	type kept struct {
		rep, want Reply
	}
	retained := make([][]kept, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr, time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			type read struct {
				k           *aliasKey
				get         bool
				start, stop int
				lo          int64
			}
			var reps []Reply
			for b := 0; b < batches; b++ {
				reads := make([]read, 1+rng.Intn(8))
				for i := range reads {
					rd := read{k: keys[rng.Intn(nKeys)], get: rng.Intn(3) == 0}
					rd.lo = rd.k.acked.Load()
					if rd.get {
						err = c.Send("GET", []byte(rd.k.name))
					} else {
						rd.start, rd.stop = rng.Intn(500)-250, rng.Intn(500)-250
						if rng.Intn(4) == 0 {
							rd.start, rd.stop = 0, -1
						}
						err = c.Send("LRANGE", []byte(rd.k.name),
							[]byte(strconv.Itoa(rd.start)), []byte(strconv.Itoa(rd.stop)))
					}
					if err != nil {
						t.Error(err)
						return
					}
					reads[i] = rd
				}
				if reps, err = c.FlushInto(reps[:0]); err != nil {
					t.Error(err)
					return
				}
				for i, rd := range reads {
					hi := rd.k.issued.Load()
					var candidates []string
					matched := false
					for _, st := range rd.k.window(rd.lo, hi) {
						want := rd.k.want(st, rd.get, rd.start, rd.stop)
						if sameReply(reps[i], want) {
							retained[r] = append(retained[r], kept{reps[i], want})
							matched = true
							break
						}
						candidates = append(candidates, want.String())
					}
					if !matched {
						t.Errorf("%s (get %v, %d..%d): reply %v matches none of states %d..%d: %s",
							rd.k.name, rd.get, rd.start, rd.stop, reps[i], rd.lo, hi, strings.Join(candidates, ", "))
						return
					}
				}
				if writersDone.Load() == nKeys {
					break
				}
			}
		}()
	}
	wg.Wait()
	n := 0
	for _, ks := range retained {
		for _, kp := range ks {
			if !sameReply(kp.rep, kp.want) {
				t.Fatalf("a reply changed after later writes: %v, was %v", kp.rep, kp.want)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no reply was checked")
	}
}
