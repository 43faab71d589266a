package kvstore

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestEngineSetGetDel(t *testing.T) {
	e := NewEngine()
	if rep := e.Do("GET", []byte("missing")); rep.Type != NullBulk {
		t.Errorf("GET missing = %v", rep)
	}
	if rep := e.Do("SET", []byte("k"), []byte("v")); rep.Str != "OK" {
		t.Errorf("SET = %v", rep)
	}
	if rep := e.Do("GET", []byte("k")); string(rep.Bulk) != "v" {
		t.Errorf("GET = %v", rep)
	}
	if rep := e.Do("DEL", []byte("k"), []byte("nope")); rep.Int != 1 {
		t.Errorf("DEL = %v", rep)
	}
	if rep := e.Do("GET", []byte("k")); rep.Type != NullBulk {
		t.Errorf("GET after DEL = %v", rep)
	}
}

func TestEngineIncr(t *testing.T) {
	e := NewEngine()
	if rep := e.Do("INCR", []byte("c")); rep.Int != 1 {
		t.Errorf("first INCR = %v", rep)
	}
	if rep := e.Do("INCR", []byte("c")); rep.Int != 2 {
		t.Errorf("second INCR = %v", rep)
	}
	e.Do("SET", []byte("s"), []byte("notanumber"))
	if rep := e.Do("INCR", []byte("s")); rep.Type != ErrorReply {
		t.Errorf("INCR on text = %v", rep)
	}
}

func TestEngineIncrAtomicity(t *testing.T) {
	e := NewEngine()
	var wg sync.WaitGroup
	const workers, per = 16, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if rep := e.Do("INCR", []byte("n")); rep.Type == ErrorReply {
					t.Error(rep.Str)
					return
				}
			}
		}()
	}
	wg.Wait()
	rep := e.Do("GET", []byte("n"))
	n, err := strconv.Atoi(string(rep.Bulk))
	if err != nil || n != workers*per {
		t.Errorf("counter = %q, want %d", rep.Bulk, workers*per)
	}
}

func TestEngineLists(t *testing.T) {
	e := NewEngine()
	if rep := e.Do("RPUSH", []byte("l"), []byte("a"), []byte("b")); rep.Int != 2 {
		t.Errorf("RPUSH = %v", rep)
	}
	if rep := e.Do("RPUSH", []byte("l"), []byte("z")); rep.Int != 3 {
		t.Errorf("second RPUSH = %v", rep)
	}
	if rep := e.Do("LLEN", []byte("l")); rep.Int != 3 {
		t.Errorf("LLEN = %v", rep)
	}
	rep := e.Do("LRANGE", []byte("l"), []byte("0"), []byte("-1"))
	if len(rep.Array) != 3 || string(rep.Array[0].Bulk) != "a" || string(rep.Array[2].Bulk) != "z" {
		t.Errorf("LRANGE = %v", rep)
	}
	if rep := e.Do("LRANGE", []byte("l"), []byte("-1"), []byte("-1")); len(rep.Array) != 1 || string(rep.Array[0].Bulk) != "z" {
		t.Errorf("LRANGE -1 -1 = %v", rep)
	}
	// Range semantics.
	if rep := e.Do("LRANGE", []byte("l"), []byte("5"), []byte("9")); len(rep.Array) != 0 {
		t.Errorf("empty LRANGE = %v", rep)
	}
	if rep := e.Do("LRANGE", []byte("l"), []byte("-2"), []byte("-1")); len(rep.Array) != 2 {
		t.Errorf("negative LRANGE = %v", rep)
	}
	if rep := e.Do("LLEN", []byte("missing")); rep.Int != 0 {
		t.Errorf("LLEN missing = %v", rep)
	}
}

func TestEngineWrongType(t *testing.T) {
	e := NewEngine()
	e.Do("SET", []byte("s"), []byte("v"))
	e.Do("RPUSH", []byte("l"), []byte("v"))
	if rep := e.Do("RPUSH", []byte("s"), []byte("x")); rep.Type != ErrorReply {
		t.Errorf("RPUSH on string = %v", rep)
	}
	if rep := e.Do("GET", []byte("l")); rep.Type != ErrorReply {
		t.Errorf("GET on list = %v", rep)
	}
	if rep := e.Do("INCR", []byte("l")); rep.Type != ErrorReply {
		t.Errorf("INCR on list = %v", rep)
	}
	if rep := e.Do("LLEN", []byte("s")); rep.Type != ErrorReply {
		t.Errorf("LLEN on string = %v", rep)
	}
	// SET over a list replaces it (Redis semantics).
	if rep := e.Do("SET", []byte("l"), []byte("now-string")); rep.Str != "OK" {
		t.Errorf("SET over list = %v", rep)
	}
	if rep := e.Do("GET", []byte("l")); string(rep.Bulk) != "now-string" {
		t.Errorf("GET after overwrite = %v", rep)
	}
}

func TestEngineDBSize(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 20; i++ {
		e.Do("SET", []byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	e.Do("RPUSH", []byte("list"), []byte("x"))
	if rep := e.Do("DBSIZE"); rep.Int != 21 {
		t.Errorf("DBSIZE = %v", rep)
	}
	e.Do("DEL", []byte("list"), []byte("k0"))
	if rep := e.Do("DBSIZE"); rep.Int != 19 {
		t.Errorf("DBSIZE after DEL = %v", rep)
	}
}

func TestEngineArgValidation(t *testing.T) {
	e := NewEngine()
	bad := [][]string{
		{"GET"}, {"SET", "k"}, {"DEL"}, {"INCR"}, {"RPUSH", "k"},
		{"LRANGE", "k", "0"}, {"LLEN"},
	}
	for _, c := range bad {
		args := make([][]byte, len(c)-1)
		for i := range args {
			args[i] = []byte(c[i+1])
		}
		if rep := e.Do(c[0], args...); rep.Type != ErrorReply {
			t.Errorf("%v accepted: %v", c, rep)
		}
	}
	if rep := e.Do("NOSUCHCMD"); rep.Type != ErrorReply {
		t.Errorf("unknown command accepted: %v", rep)
	}
	// Cut because no program sent them; an old log holding one fails
	// replay at that record.
	for _, name := range []string{"PING", "ECHO", "EXISTS", "INCRBY", "APPEND", "STRLEN", "LPUSH", "LINDEX", "FLUSHDB", "FLUSHALL"} {
		if rep := e.Do(name, []byte("k"), []byte("1")); rep.Type != ErrorReply || !strings.HasPrefix(rep.Str, "ERR unknown command") {
			t.Errorf("%s = %v, want ERR unknown command", name, rep)
		}
	}
	if rep := e.Do("LRANGE", []byte("k"), []byte("a"), []byte("b")); rep.Type != ErrorReply {
		t.Errorf("non-integer range accepted: %v", rep)
	}
}

func TestEngineCaseInsensitive(t *testing.T) {
	e := NewEngine()
	if rep := e.Do("set", []byte("k"), []byte("v")); rep.Str != "OK" {
		t.Errorf("lowercase set = %v", rep)
	}
	if rep := e.Do("gEt", []byte("k")); string(rep.Bulk) != "v" {
		t.Errorf("mixed-case get = %v", rep)
	}
}

func TestEngineValueIsolation(t *testing.T) {
	// Values must be copied in and out: mutating caller buffers after
	// SET, or returned buffers after GET, cannot corrupt the store.
	e := NewEngine()
	buf := []byte("original")
	e.Do("SET", []byte("k"), buf)
	buf[0] = 'X'
	rep := e.Do("GET", []byte("k"))
	if string(rep.Bulk) != "original" {
		t.Error("store aliases caller's SET buffer")
	}
	rep.Bulk[0] = 'Y'
	rep2 := e.Do("GET", []byte("k"))
	if string(rep2.Bulk) != "original" {
		t.Error("store aliases returned GET buffer")
	}
	// Same for lists.
	lv := []byte("item")
	e.Do("RPUSH", []byte("l"), lv)
	lv[0] = 'Z'
	rep3 := e.Do("LRANGE", []byte("l"), []byte("0"), []byte("0"))
	if len(rep3.Array) != 1 || !bytes.Equal(rep3.Array[0].Bulk, []byte("item")) {
		t.Error("list aliases pushed buffer")
	}
}

func TestEngineConcurrentMixedOps(t *testing.T) {
	e := NewEngine()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := []byte(fmt.Sprintf("worker%d", w))
			for i := 0; i < 200; i++ {
				e.Do("RPUSH", key, []byte{byte(i)})
				e.Do("LLEN", key)
				e.Do("SET", []byte(fmt.Sprintf("s%d-%d", w, i%10)), []byte("v"))
				e.Do("GET", []byte(fmt.Sprintf("s%d-%d", (w+1)%8, i%10)))
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < 8; w++ {
		rep := e.Do("LLEN", []byte(fmt.Sprintf("worker%d", w)))
		if rep.Int != 200 {
			t.Errorf("worker %d list len %d", w, rep.Int)
		}
	}
}

func BenchmarkEngineSet(b *testing.B) {
	e := NewEngine()
	key := []byte("bench")
	val := bytes.Repeat([]byte("v"), 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Do("SET", key, val)
	}
}

func BenchmarkEngineRPush(b *testing.B) {
	e := NewEngine()
	val := bytes.Repeat([]byte("v"), 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%10000 == 0 {
			e.Do("DEL", []byte("l"))
		}
		e.Do("RPUSH", []byte("l"), val)
	}
}

// TestEngineCopiesArguments guards the zero-copy boundary forever: the
// server parses commands into a pooled arena and recycles it after
// every Do, so the engine must copy anything it stores. Mutating the
// caller's buffers after the call must never reach stored state.
func TestEngineCopiesArguments(t *testing.T) {
	e := NewEngine()
	key := []byte("k")
	val := []byte("value")
	e.Do("SET", key, val)
	key[0], val[0] = 'X', 'X'
	if rep := e.Do("GET", []byte("k")); string(rep.Bulk) != "value" {
		t.Errorf("SET aliased caller memory: stored %q", rep.Bulk)
	}

	lkey := []byte("l")
	el1, el2 := []byte("aa"), []byte("bb")
	e.Do("RPUSH", lkey, el1, el2)
	el1[0], el2[0], lkey[0] = 'X', 'X', 'X'
	el3 := []byte("tail") // extends the end segment in place
	e.Do("RPUSH", []byte("l"), el3)
	el3[0] = 'X'
	rep := e.Do("LRANGE", []byte("l"), []byte("0"), []byte("-1"))
	if len(rep.Array) != 3 || string(rep.Array[0].Bulk) != "aa" ||
		string(rep.Array[1].Bulk) != "bb" || string(rep.Array[2].Bulk) != "tail" {
		t.Errorf("RPUSH aliased caller memory: %v", rep.Array)
	}

	// And the read direction: replies must not alias engine storage.
	out := e.Do("GET", []byte("k"))
	out.Bulk[0] = 'Z'
	if rep := e.Do("GET", []byte("k")); string(rep.Bulk) != "value" {
		t.Errorf("GET reply aliases engine storage: %q", rep.Bulk)
	}
	for _, el := range e.Do("LRANGE", []byte("l"), []byte("0"), []byte("-1")).Array {
		el.Bulk[0] = 'Z'
	}
	rep = e.Do("LRANGE", []byte("l"), []byte("0"), []byte("-1"))
	if len(rep.Array) != 3 || string(rep.Array[0].Bulk) != "aa" ||
		string(rep.Array[1].Bulk) != "bb" || string(rep.Array[2].Bulk) != "tail" {
		t.Errorf("LRANGE reply aliases engine storage: %v", rep.Array)
	}
}
