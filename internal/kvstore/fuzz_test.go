package kvstore

import (
	"bufio"
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestEngineRandomCommandStorm throws random commands with random
// argument shapes at the engine: whatever comes in, the engine must
// return a well-formed reply and never panic, and counters must stay
// numerically consistent.
func TestEngineRandomCommandStorm(t *testing.T) {
	cmds := []string{
		"PING", "ECHO", "SET", "GET", "DEL", "EXISTS", "INCR", "INCRBY",
		"APPEND", "STRLEN", "RPUSH", "LPUSH", "LLEN", "LINDEX", "LRANGE",
		"FLUSHDB", "DBSIZE", "BOGUS", "",
	}
	rng := rand.New(rand.NewSource(33))
	e := NewEngine()
	keys := []string{"a", "b", "c", "list", "n"}
	for i := 0; i < 20000; i++ {
		cmd := cmds[rng.Intn(len(cmds))]
		nArgs := rng.Intn(4)
		args := make([][]byte, nArgs)
		for j := range args {
			switch rng.Intn(3) {
			case 0:
				args[j] = []byte(keys[rng.Intn(len(keys))])
			case 1:
				args[j] = []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
			default:
				args[j] = []byte("12")
			}
		}
		rep := e.Do(cmd, args...)
		switch rep.Type {
		case SimpleString, ErrorReply, Integer, BulkString, NullBulk, Array, NullArray:
		default:
			t.Fatalf("cmd %q returned malformed reply type %d", cmd, rep.Type)
		}
		// Every reply must survive wire encoding.
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := WriteReply(w, rep); err != nil {
			t.Fatalf("cmd %q reply unencodable: %v", cmd, err)
		}
	}
}

// TestProtocolRandomBytes feeds random garbage to the reply parser: it
// must error or succeed, never hang or panic.
func TestProtocolRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(64)
		buf := make([]byte, n)
		for j := range buf {
			// Bias toward protocol-significant bytes.
			switch rng.Intn(4) {
			case 0:
				buf[j] = "+-:$*\r\n0123456789"[rng.Intn(17)]
			default:
				buf[j] = byte(rng.Intn(256))
			}
		}
		r := bufio.NewReader(bytes.NewReader(buf))
		for {
			if _, err := ReadReply(r); err != nil {
				break
			}
		}
	}
}

// TestCommandRoundTripPooled is a write→read round-trip fuzzer over
// the pooled command path: random commands are framed by WriteCommand
// and parsed back by ReadCommandInto through ONE shared CommandBuffer.
// Each generation must deep-equal what was written, and bytes copied
// out of the arena (the engine-boundary contract) must survive the
// arena being recycled by later generations.
func TestCommandRoundTripPooled(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	names := []string{"SET", "GET", "RPUSH", "MSET", "weird-cmd", "p"}
	var wire bytes.Buffer
	w := bufio.NewWriter(&wire)
	type gen struct {
		name string
		args [][]byte
	}
	const rounds = 2000
	gens := make([]gen, rounds)
	for i := range gens {
		g := gen{name: names[rng.Intn(len(names))]}
		for j := rng.Intn(5); j > 0; j-- {
			arg := make([]byte, rng.Intn(300))
			rng.Read(arg)
			g.args = append(g.args, arg)
		}
		gens[i] = g
		if err := WriteCommand(w, g.name, g.args...); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	r := bufio.NewReader(&wire)
	var cb CommandBuffer
	// copies holds arena data copied at the consumer boundary; it must
	// stay intact no matter how many times the arena is recycled.
	copies := make(map[int][][]byte)
	for i, g := range gens {
		name, args, err := ReadCommandInto(r, &cb, MaxBulkLen)
		if err != nil {
			t.Fatalf("generation %d: %v", i, err)
		}
		if name != g.name {
			t.Fatalf("generation %d: name %q, want %q", i, name, g.name)
		}
		if len(args) != len(g.args) {
			t.Fatalf("generation %d: %d args, want %d", i, len(args), len(g.args))
		}
		for j, a := range args {
			if !bytes.Equal(a, g.args[j]) {
				t.Fatalf("generation %d arg %d: %q, want %q", i, j, a, g.args[j])
			}
		}
		if rng.Intn(10) == 0 && len(args) > 0 {
			cp := make([][]byte, len(args))
			for j, a := range args {
				cp[j] = append([]byte(nil), a...)
			}
			copies[i] = cp
		}
	}
	for i, cp := range copies {
		for j, c := range cp {
			if !bytes.Equal(c, gens[i].args[j]) {
				t.Fatalf("boundary copy of generation %d arg %d corrupted by arena reuse", i, j)
			}
		}
	}
}

// TestReplyRoundTripPooled fuzzes the reply decoder beside the pooled
// command path above: random reply trees, nested three deep, framed by
// WriteReply and parsed back by ReadReply must deep-equal the original.
func TestReplyRoundTripPooled(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	randReply := func(depth int) Reply {
		var mk func(d int) Reply
		mk = func(d int) Reply {
			switch k := rng.Intn(7); {
			case k == 0:
				return Reply{Type: SimpleString, Str: "s"}
			case k == 1:
				return Reply{Type: ErrorReply, Str: "e"}
			case k == 2:
				return Reply{Type: Integer, Int: rng.Int63() - rng.Int63()}
			case k == 3:
				b := make([]byte, rng.Intn(200))
				rng.Read(b)
				return Reply{Type: BulkString, Bulk: b}
			case k == 4:
				return Reply{Type: NullBulk}
			case k == 5 && d > 0:
				els := make([]Reply, rng.Intn(5))
				for i := range els {
					els[i] = mk(d - 1)
				}
				return Reply{Type: Array, Array: els}
			default:
				return Reply{Type: NullArray}
			}
		}
		return mk(depth)
	}
	for i := 0; i < 3000; i++ {
		orig := randReply(3)
		var wire bytes.Buffer
		w := bufio.NewWriter(&wire)
		if err := WriteReply(w, orig); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		dst, err := ReadReply(bufio.NewReader(&wire))
		if err != nil {
			t.Fatalf("generation %d: %v", i, err)
		}
		if !replyEqualLoose(dst, orig) {
			t.Fatalf("generation %d: parsed %+v, want %+v", i, dst, orig)
		}
	}
}

// replyEqualLoose is replyEqual but treating nil and empty bulk/array
// as equal (the wire cannot distinguish them).
func replyEqualLoose(a, b Reply) bool {
	if a.Type != b.Type || a.Str != b.Str || a.Int != b.Int {
		return false
	}
	if !bytes.Equal(a.Bulk, b.Bulk) {
		return false
	}
	if len(a.Array) != len(b.Array) {
		return false
	}
	for i := range a.Array {
		if !replyEqualLoose(a.Array[i], b.Array[i]) {
			return false
		}
	}
	return true
}

// FuzzReadCommandInto feeds arbitrary bytes to the command decoder as a
// pipelined stream. It must never panic, and what it accepts must be
// self-consistent: every command it decodes re-encodes with
// WriteCommand to exactly the bytes it consumed.
func FuzzReadCommandInto(f *testing.F) {
	for _, seed := range []string{
		"*1\r\n$4\r\nPING\r\n",
		"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$0\r\n\r\n",
		"*2\r\n$3\r\nget\r\n$3\r\nkey\r\n*1\r\n$4\r\nPING\r\n",
		"*2\r\n$3\r\nGET\r\n$03\r\nkey\r\n",
		"*0\r\n",
		"*-1\r\n",
		"*1\r\n$-1\r\n",
		"$3\r\nGET\r\n",
		"*1\r\n$3\r\nGET",
		"*1\n$3\nGET\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		src := bytes.NewReader(in)
		r := bufio.NewReader(src)
		var cb CommandBuffer
		var enc bytes.Buffer
		w := bufio.NewWriter(&enc)
		consumed := 0
		for {
			name, args, err := ReadCommandInto(r, &cb, 1<<16)
			if err != nil {
				return
			}
			end := len(in) - src.Len() - r.Buffered()
			enc.Reset()
			if err := WriteCommand(w, name, args...); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc.Bytes(), in[consumed:end]) {
				t.Fatalf("accepted %q, which re-encodes as %q", in[consumed:end], enc.Bytes())
			}
			consumed = end
		}
	})
}

// FuzzReadReply feeds arbitrary bytes to the reply decoder as a
// stream of replies. It must never panic, and every reply it accepts
// must re-encode with WriteReply to exactly the bytes it consumed.
func FuzzReadReply(f *testing.F) {
	for _, seed := range []string{
		"+OK\r\n",
		"-ERR unknown command 'X'\r\n",
		":0\r\n:-42\r\n:9223372036854775807\r\n:-9223372036854775808\r\n",
		"$3\r\nabc\r\n$0\r\n\r\n$-1\r\n",
		"*2\r\n$1\r\na\r\n*1\r\n:1\r\n",
		"*0\r\n*-1\r\n",
		":+5\r\n",
		":007\r\n",
		":-0\r\n",
		":9223372036854775808\r\n",
		":20000000000000000000\r\n",
		"$03\r\nabc\r\n",
		"*1\r\n$3\r\nab",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if hugeArrayHeader(in) {
			return
		}
		src := bytes.NewReader(in)
		r := bufio.NewReader(src)
		var enc bytes.Buffer
		w := bufio.NewWriter(&enc)
		consumed := 0
		for {
			rep, err := ReadReply(r)
			if err != nil {
				return
			}
			end := len(in) - src.Len() - r.Buffered()
			enc.Reset()
			if err := WriteReply(w, rep); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc.Bytes(), in[consumed:end]) {
				t.Fatalf("accepted %q, which re-encodes as %q", in[consumed:end], enc.Bytes())
			}
			consumed = end
		}
	})
}

// hugeArrayHeader reports whether in holds a "*<n>" with n above 4096
// anywhere. ReadReply allocates an array header's elements before
// reading them (up to MaxArrayLen, 80 MB), so nested big headers of a
// few bytes each would have the fuzzer allocate gigabytes; the target
// skips them.
func hugeArrayHeader(in []byte) bool {
	for i := bytes.IndexByte(in, '*'); i >= 0; {
		n := 0
		for _, c := range in[i+1:] {
			if c < '0' || c > '9' || n > 4096 {
				break
			}
			n = n*10 + int(c-'0')
		}
		if n > 4096 {
			return true
		}
		j := bytes.IndexByte(in[i+1:], '*')
		if j < 0 {
			break
		}
		i += 1 + j
	}
	return false
}

// FuzzReplayAOF replays a log of a valid header plus arbitrary bytes.
// Replay must never panic, and the end offset it returns must lie
// inside the file; truncated at that offset, the file must replay
// cleanly to the same record count and the same offset — the
// truncation EnableAOF performs before it appends again.
func FuzzReplayAOF(f *testing.F) {
	for _, seed := range []string{
		"",
		"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n*2\r\n$4\r\nINCR\r\n$1\r\nn\r\n",
		"*3\r\n$5\r\nRPUSH\r\n$1\r\nl\r\n$1\r\nx\r\n*3\r\n$5\r\nRPUSH\r\n$1\r\nl\r\n$3\r\nto",
		"*3\r\n$5\r\nRPUSH\r\n$1\r\nl\r\n$1\r\nx\r\n*2\r\n$4\r\nINCR\r\n$1\r\nl\r\n",
		"*1\r\n$7\r\nFLUSHDB\r\n*1\r\n$4\r\nMSET\r\n",
		"*2\r\n$3\r\nDEL\r\n$1\r\nk\r\n*1\r\n$-1\r\n",
		"*3\r\n$6\r\nAPPEND\r\n$1\r\nk\r\n$2\r\nab\r\n*1\r\n",
		"garbage\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.aof")
		img := append([]byte(aofHeader), body...)
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		n, end, _ := ReplayAOF(path, NewEngine())
		if end < int64(aofHeaderLen) || end > int64(len(img)) {
			t.Fatalf("end offset %d outside the %d-byte log", end, len(img))
		}
		if err := os.Truncate(path, end); err != nil {
			t.Fatal(err)
		}
		n2, end2, err := ReplayAOF(path, NewEngine())
		if err != nil || n2 != n || end2 != end {
			t.Fatalf("truncated at %d: replayed %d to %d (err %v), want %d to %d", end, n2, end2, err, n, end)
		}
	})
}
