package kvstore

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"testing"
	"time"
)

// lrangeList pushes the list TestLRangeFramingMatchesWriteReply reads:
// batches of 100, 20, 200, 3 and 2 values, so it holds three segments
// (120, 200 and 5 values), values of 1 to 300 bytes among them, so
// some are framed into the writer's arena and some are referenced.
func lrangeList(t testing.TB, e *Engine) [][]byte {
	t.Helper()
	var all [][]byte
	for _, batch := range []int{100, 20, 200, 3, 2} {
		vals := make([][]byte, batch)
		for i := range vals {
			j := len(all) + i
			vals[i] = bytes.Repeat([]byte{byte('a' + j%26)}, 1+j*37%300)
		}
		if rep := e.Do("RPUSH", append([][]byte{[]byte("l")}, vals...)...); rep.Type != Integer {
			t.Fatalf("RPUSH: %v", rep)
		}
		all = append(all, vals...)
	}
	return all
}

// TestLRangeFramingMatchesWriteReply holds the server's LRANGE framing,
// written straight from the list's segments, to WriteReply's bytes for
// the model's reply: windows within and across segment boundaries,
// negative and out-of-range bounds, empty windows, a missing key, and
// the WRONGTYPE, arity and bound errors. The commands go down one
// pipelined connection, so the replies also share flushes. Engine.Do
// must answer the same windows.
func TestLRangeFramingMatchesWriteReply(t *testing.T) {
	addr, srv := startServer(t)
	e := srv.Engine()
	model := lrangeList(t, e)
	e.Do("SET", []byte("s"), []byte("string"))
	n := len(model)

	type tc struct {
		args [][]byte
		want Reply
	}
	var cases []tc
	bounds := []int{-1000, -n - 1, -n, -n + 1, -3, -1, 0, 1, 119, 120, 121, 319, 320, 321, n - 1, n, 1000}
	for _, start := range bounds {
		for _, stop := range bounds {
			want := Reply{Type: Array, Array: []Reply{}}
			lo, hi := start, stop
			if lo < 0 {
				lo += n
			}
			if hi < 0 {
				hi += n
			}
			for i := max(lo, 0); i <= min(hi, n-1); i++ {
				want.Array = append(want.Array, bulkReply(model[i]))
			}
			cases = append(cases, tc{[][]byte{[]byte("l"), []byte(strconv.Itoa(start)), []byte(strconv.Itoa(stop))}, want})
		}
	}
	cases = append(cases,
		tc{[][]byte{[]byte("missing"), []byte("0"), []byte("-1")}, Reply{Type: Array, Array: []Reply{}}},
		tc{[][]byte{[]byte("s"), []byte("0"), []byte("-1")}, wrongType()},
		tc{[][]byte{[]byte("l"), []byte("0")}, wrongArgs("lrange")},
		tc{[][]byte{[]byte("l"), []byte("0"), []byte("-1"), []byte("9")}, wrongArgs("lrange")},
		tc{[][]byte{[]byte("l"), []byte("zero"), []byte("-1")}, notInteger()},
	)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	w := bufio.NewWriter(conn)
	for _, c := range cases {
		if err := WriteCommand(w, "LRANGE", c.args...); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteCommand(w, "DBSIZE"); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	for _, c := range cases {
		var ref bytes.Buffer
		rw := bufio.NewWriter(&ref)
		if err := WriteReply(rw, c.want); err != nil {
			t.Fatal(err)
		}
		rw.Flush()
		got := make([]byte, ref.Len())
		if _, err := io.ReadFull(r, got); err != nil {
			t.Fatalf("LRANGE %q: %v", c.args, err)
		}
		if !bytes.Equal(got, ref.Bytes()) {
			t.Fatalf("LRANGE %q framed %.200q, WriteReply %.200q", c.args, got, ref.Bytes())
		}
		if do := e.Do("LRANGE", c.args...); !replyEqual(do, c.want) {
			t.Fatalf("Engine.Do LRANGE %q = %v, want %v", c.args, do, c.want)
		}
	}
	if line, err := r.ReadString('\n'); err != nil || line != ":2\r\n" {
		t.Fatalf("after the LRANGE replies: %q, %v; want :2 (keys l and s)", line, err)
	}
}

// TestLRangeFramingCostsSegments bounds what the server spends framing
// one LRANGE: the window walk and the writer allocate per segment the
// window spans, if at all, never per element.
func TestLRangeFramingCostsSegments(t *testing.T) {
	e := NewEngine()
	const pushes, per = 40, 250
	for p := 0; p < pushes; p++ {
		vals := [][]byte{[]byte("l")}
		for i := 0; i < per; i++ {
			vals = append(vals, []byte(fmt.Sprintf("value-%05d", p*per+i)))
		}
		e.Do("RPUSH", vals...)
	}
	args := [][]byte{[]byte("l"), []byte("0"), []byte("-1")}
	rw := newRESPWriter(io.Discard)
	var win [][][]byte
	allocs := testing.AllocsPerRun(20, func() {
		var ok bool
		win, _, ok = e.lrange(args, win[:0])
		if !ok || len(win) != pushes {
			t.Fatalf("window of %d segments, ok %v; want %d", len(win), ok, pushes)
		}
		rw.writeWindow(win)
		if _, err := rw.flush(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > pushes/4 {
		t.Errorf("framing a %d-element, %d-segment window allocates %.0f times", pushes*per, pushes, allocs)
	}
}
