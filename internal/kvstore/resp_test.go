package kvstore

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func encodeReply(t *testing.T, r Reply) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteReply(w, r); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decodeReply(t *testing.T, b []byte) Reply {
	t.Helper()
	r, err := ReadReply(bufio.NewReader(bytes.NewReader(b)))
	if err != nil {
		t.Fatalf("decode %q: %v", b, err)
	}
	return r
}

func TestReplyWireFormats(t *testing.T) {
	cases := []struct {
		r    Reply
		wire string
	}{
		{Reply{Type: SimpleString, Str: "OK"}, "+OK\r\n"},
		{Reply{Type: ErrorReply, Str: "ERR boom"}, "-ERR boom\r\n"},
		{Reply{Type: Integer, Int: -42}, ":-42\r\n"},
		{Reply{Type: BulkString, Bulk: []byte("hello")}, "$5\r\nhello\r\n"},
		{Reply{Type: BulkString, Bulk: []byte{}}, "$0\r\n\r\n"},
		{Reply{Type: NullBulk}, "$-1\r\n"},
		{Reply{Type: NullArray}, "*-1\r\n"},
		{Reply{Type: Array, Array: []Reply{{Type: Integer, Int: 1}, {Type: BulkString, Bulk: []byte("x")}}},
			"*2\r\n:1\r\n$1\r\nx\r\n"},
		{Reply{Type: Array, Array: []Reply{}}, "*0\r\n"},
	}
	for i, c := range cases {
		got := encodeReply(t, c.r)
		if string(got) != c.wire {
			t.Errorf("case %d: wire %q, want %q", i, got, c.wire)
		}
		back := decodeReply(t, got)
		// Normalize empty vs nil slices for comparison.
		if back.String() != c.r.String() || back.Type != c.r.Type {
			t.Errorf("case %d: roundtrip %+v vs %+v", i, back, c.r)
		}
	}
}

func TestReplyRoundtripQuick(t *testing.T) {
	f := func(payload []byte, n int64) bool {
		rs := []Reply{
			{Type: BulkString, Bulk: payload},
			{Type: Integer, Int: n},
			{Type: Array, Array: []Reply{
				{Type: BulkString, Bulk: payload},
				{Type: Integer, Int: n},
				{Type: NullBulk},
			}},
		}
		for _, r := range rs {
			var buf bytes.Buffer
			w := bufio.NewWriter(&buf)
			if err := WriteReply(w, r); err != nil {
				return false
			}
			w.Flush()
			back, err := ReadReply(bufio.NewReader(&buf))
			if err != nil {
				return false
			}
			if !replyEqual(back, r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func replyEqual(a, b Reply) bool {
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
		if !replyEqual(a.Array[i], b.Array[i]) {
			return false
		}
	}
	return true
}

func TestCommandRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteCommand(w, "SET", []byte("key"), []byte("value with\r\nbinary\x00bytes")); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	cmd, args, err := ReadCommandInto(bufio.NewReader(&buf), &CommandBuffer{}, MaxBulkLen)
	if err != nil {
		t.Fatal(err)
	}
	if cmd != "SET" || len(args) != 2 || string(args[0]) != "key" {
		t.Errorf("cmd %q args %q", cmd, args)
	}
	if !bytes.Equal(args[1], []byte("value with\r\nbinary\x00bytes")) {
		t.Error("binary-unsafe argument transport")
	}
}

func TestReadReplyMalformed(t *testing.T) {
	cases := []string{
		"",                // EOF
		"\r\n",            // empty line
		"!bogus\r\n",      // unknown type byte
		":notanumber\r\n", // bad integer
		"$abc\r\n",        // bad bulk length
		"$5\r\nhi\r\n",    // truncated bulk
		"$2\r\nhixx",      // missing CRLF
		"*2\r\n:1\r\n",    // truncated array
		"+no terminator",  // missing CRLF at EOF
		"*xyz\r\n",        // bad array length
	}
	for i, c := range cases {
		_, err := ReadReply(bufio.NewReader(strings.NewReader(c)))
		if err == nil {
			t.Errorf("case %d (%q): accepted", i, c)
		}
	}
}

// TestMalformedLengthHeaders drives every hostile length-header shape
// through both the reply parser and the command parser: negative
// (other than the -1 null), oversized, overflowing, and garbage
// lengths must all fail with a protocol error before any allocation
// can happen.
func TestMalformedLengthHeaders(t *testing.T) {
	cases := []struct {
		name string
		wire string
	}{
		{"negative bulk", "$-5\r\nhello\r\n"},
		{"negative bulk -2", "$-2\r\n"},
		{"oversized bulk", "$1073741825\r\n"},                  // MaxBulkLen+1
		{"hugely oversized bulk", "$99999999999999999999\r\n"}, // would overflow int64
		{"bulk length with sign", "$+5\r\nhello\r\n"},
		{"bulk length with spaces", "$ 5\r\nhello\r\n"},
		{"empty bulk length", "$\r\n"},
		{"negative array", "*-3\r\n"},
		{"oversized array", "*1048577\r\n"}, // MaxArrayLen+1
		{"hugely oversized array", "*99999999999999999999\r\n"},
		{"array length with sign", "*+2\r\n"},
		{"empty array length", "*\r\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadReply(bufio.NewReader(strings.NewReader(c.wire))); !errors.Is(err, ErrProtocol) {
				t.Errorf("ReadReply(%q): err=%v, want ErrProtocol", c.wire, err)
			}
			cmdWire := c.wire
			if c.wire[0] == '$' {
				cmdWire = "*2\r\n$4\r\nPING\r\n" + c.wire
			}
			var cb CommandBuffer
			if _, _, err := ReadCommandInto(bufio.NewReader(strings.NewReader(cmdWire)), &cb, MaxBulkLen); !errors.Is(err, ErrProtocol) {
				t.Errorf("ReadCommandInto(%q): err=%v, want ErrProtocol", cmdWire, err)
			}
		})
	}
	// Null markers remain valid where RESP allows them.
	if rep, err := ReadReply(bufio.NewReader(strings.NewReader("$-1\r\n"))); err != nil || rep.Type != NullBulk {
		t.Errorf("null bulk: %v %v", rep, err)
	}
	if rep, err := ReadReply(bufio.NewReader(strings.NewReader("*-1\r\n"))); err != nil || rep.Type != NullArray {
		t.Errorf("null array: %v %v", rep, err)
	}
}

// TestArrayHeadersAllocateWhatArrives holds the reply decoder to the
// rule its bulk reads keep: it allocates no faster than the stream
// delivers. Twenty nested headers each claiming MaxArrayLen elements,
// 220 bytes in all, once allocated 80 MB per header; they must now
// cost under 1 MB. An array longer than the read buffer still decodes
// whole as its elements arrive.
func TestArrayHeadersAllocateWhatArrives(t *testing.T) {
	nested := strings.Repeat("*1048576\r\n", 20)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := ReadReply(bufio.NewReader(strings.NewReader(nested)))
	runtime.ReadMemStats(&m1)
	if err == nil {
		t.Fatal("a truncated nest of arrays decoded")
	}
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 1<<20 {
		t.Errorf("%d bytes of array headers allocated %d bytes", len(nested), alloc)
	}

	const n = 50_000
	wire := "*" + strconv.Itoa(n) + "\r\n" + strings.Repeat(":7\r\n", n)
	rep, err := ReadReply(bufio.NewReaderSize(strings.NewReader(wire), 4096))
	if err != nil || rep.Type != Array || len(rep.Array) != n {
		t.Fatalf("%d-element array through a 4 KiB reader: %d elements, err %v", n, len(rep.Array), err)
	}
	for i, el := range rep.Array {
		if el.Type != Integer || el.Int != 7 {
			t.Fatalf("element %d = %v", i, el)
		}
	}
}

// TestHeaderLineLengthBounded: a "line" that never terminates must
// error once past the line bound instead of accumulating forever.
func TestHeaderLineLengthBounded(t *testing.T) {
	endless := "+" + strings.Repeat("x", maxLineLen+4096)
	r := bufio.NewReaderSize(strings.NewReader(endless), 4096)
	if _, err := ReadReply(r); !errors.Is(err, ErrProtocol) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("unterminated giant line: err=%v", err)
	}
}

// TestCommandArenaReuse exercises ReadCommandInto's pooled path: the
// same CommandBuffer parses back-to-back commands, arguments stay
// correct per generation, and arguments from a previous generation are
// recycled (the documented contract consumers copy against).
func TestCommandArenaReuse(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteCommand(w, "SET", []byte("key-one"), []byte("value-one")); err != nil {
		t.Fatal(err)
	}
	if err := WriteCommand(w, "SET", []byte("k2"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r := bufio.NewReader(&buf)
	var cb CommandBuffer
	_, args, err := ReadCommandInto(r, &cb, MaxBulkLen)
	if err != nil {
		t.Fatal(err)
	}
	if string(args[0]) != "key-one" || string(args[1]) != "value-one" {
		t.Fatalf("first generation args %q", args)
	}
	held := args[0] // retained WITHOUT copying, against the contract
	copied := append([]byte(nil), args[0]...)
	if _, args, err = ReadCommandInto(r, &cb, MaxBulkLen); err != nil {
		t.Fatal(err)
	}
	if string(args[0]) != "k2" || string(args[1]) != "v2" {
		t.Fatalf("second generation args %q", args)
	}
	if string(held) == "key-one" {
		t.Log("held slice happens to survive (arena not yet overwritten) — permitted but not guaranteed")
	}
	if string(copied) != "key-one" {
		t.Error("copied argument corrupted by arena reuse")
	}
}

func TestReadCommandErrors(t *testing.T) {
	read := func(wire string, maxBulk int) error {
		_, _, err := ReadCommandInto(bufio.NewReader(strings.NewReader(wire)), &CommandBuffer{}, maxBulk)
		return err
	}
	// A non-array is not a command.
	if read(":5\r\n", MaxBulkLen) == nil {
		t.Error("integer accepted as command")
	}
	// Empty array.
	if read("*0\r\n", MaxBulkLen) == nil {
		t.Error("empty array accepted as command")
	}
	// Array of non-bulk elements.
	if read("*1\r\n:1\r\n", MaxBulkLen) == nil {
		t.Error("integer element accepted in command")
	}
	// Clean EOF must surface as io.EOF for connection teardown.
	if err := read("", MaxBulkLen); !errors.Is(err, io.EOF) {
		t.Errorf("EOF surfaced as %v", err)
	}
	// The per-call guard: an argument within the protocol-wide limit but
	// above the caller's bound errors instead of allocating.
	echo := "*2\r\n$4\r\nECHO\r\n$1024\r\n" + strings.Repeat("x", 1024) + "\r\n"
	if err := read(echo, 512); !errors.Is(err, ErrProtocol) {
		t.Errorf("argument over the caller's bound: err=%v, want ErrProtocol", err)
	}
	if err := read(echo, 1024); err != nil {
		t.Errorf("argument within the caller's bound: %v", err)
	}
}

func TestLongLineAcrossBufferBoundary(t *testing.T) {
	// A simple string longer than the bufio buffer must still parse.
	long := strings.Repeat("x", 5000)
	r := bufio.NewReaderSize(strings.NewReader("+"+long+"\r\n"), 16)
	rep, err := ReadReply(r)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Str != long {
		t.Error("long line mangled")
	}
}

func TestReplyStringRendering(t *testing.T) {
	if got := (Reply{Type: NullBulk}).String(); got != "(nil)" {
		t.Errorf("nil renders %q", got)
	}
	if got := (Reply{Type: ErrorReply, Str: "x"}).Err(); got == nil {
		t.Error("error reply must convert to error")
	}
	if got := (Reply{Type: Integer, Int: 5}).Err(); got != nil {
		t.Error("integer reply is not an error")
	}
	if !reflect.DeepEqual(Reply{Type: ReplyType(99)}.String(), "reply(99)") {
		t.Error("unknown type must render")
	}
}
