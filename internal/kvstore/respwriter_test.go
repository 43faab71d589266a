package kvstore

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"testing"
)

// goldenReplyBytes renders replies through the golden WriteReply
// encoder (the framing contract interop_test pins against real Redis).
func goldenReplyBytes(t *testing.T, replies ...Reply) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	for _, r := range replies {
		if err := WriteReply(bw, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// respWriter must produce byte-identical framing to WriteReply for
// every reply shape — the golden encoder is the compatibility contract
// (interop_test pins it against real Redis clients).
func TestRESPWriterMatchesWriteReply(t *testing.T) {
	big := bytes.Repeat([]byte("Z"), respZeroCopyMin+100) // forces the zero-copy path
	replies := []Reply{
		okReply(),
		{Type: SimpleString, Str: "PONG"},
		errReply("ERR boom"),
		intReply(0),
		intReply(-42),
		intReply(1 << 40),
		nilReply(),
		bulkReply(nil),
		bulkReply([]byte("")),
		bulkReply([]byte("short")),
		bulkReply(big),
		{Type: Array, Array: []Reply{intReply(1), bulkReply(big), nilReply()}},
		{Type: Array, Array: nil},
	}
	want := goldenReplyBytes(t, replies...)
	var got bytes.Buffer
	rw := newRESPWriter(&got)
	for _, r := range replies {
		rw.writeReply(r)
	}
	n, err := rw.flush()
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(got.Len()) {
		t.Errorf("flush reported %d bytes, wrote %d", n, got.Len())
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("writer output diverges from WriteReply\n got %d bytes\nwant %d bytes", got.Len(), len(want))
	}
}

func TestRESPWriterInterleavedSmallAndLarge(t *testing.T) {
	// Alternate below/above the zero-copy threshold so the segment list
	// is exercised with spans on both sides of every boundary.
	var replies []Reply
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			replies = append(replies, bulkReply([]byte(fmt.Sprintf("small-%d", i))))
		} else {
			replies = append(replies, bulkReply(bytes.Repeat([]byte{byte('A' + i%26)}, respZeroCopyMin+i)))
		}
	}
	want := goldenReplyBytes(t, replies...)
	var got bytes.Buffer
	rw := newRESPWriter(&got)
	for _, r := range replies {
		rw.writeReply(r)
	}
	if _, err := rw.flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("interleaved writev output diverges from WriteReply")
	}
	// The writer must be reusable after flush.
	got.Reset()
	rw.writeReply(okReply())
	if _, err := rw.flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), goldenReplyBytes(t, okReply())) {
		t.Error("writer not reusable after flush")
	}
}

// pending() must agree exactly with the bytes a flush writes — it is
// maintained as a running counter (O(1) per query; the server asks
// after every command) rather than recomputed from the segment list.
func TestRESPWriterPendingCounter(t *testing.T) {
	var sink bytes.Buffer
	rw := newRESPWriter(&sink)
	big := bytes.Repeat([]byte("z"), respZeroCopyMin*4) // zero-copy path
	for round := 0; round < 3; round++ {                // counter must survive reuse
		if got := rw.pending(); got != 0 {
			t.Fatalf("round %d: pending = %d before any reply, want 0", round, got)
		}
		replies := []Reply{
			okReply(),
			bulkReply(big),
			intReply(42),
			bulkReply([]byte("small")),
			{Type: Array, Array: []Reply{bulkReply(big), nilReply()}},
		}
		for _, r := range replies {
			rw.writeReply(r)
		}
		want := rw.pending()
		sink.Reset()
		n, err := rw.flush()
		if err != nil {
			t.Fatal(err)
		}
		if int64(want) != n || n != int64(sink.Len()) {
			t.Fatalf("round %d: pending = %d, flush wrote %d (%d in sink)", round, want, n, sink.Len())
		}
		if got := rw.pending(); got != 0 {
			t.Fatalf("round %d: pending = %d after flush, want 0", round, got)
		}
	}
}

func TestRESPWriterFlushEmpty(t *testing.T) {
	var buf bytes.Buffer
	rw := newRESPWriter(&buf)
	n, err := rw.flush()
	if err != nil || n != 0 || buf.Len() != 0 {
		t.Errorf("empty flush = (%d, %v), wrote %d bytes", n, err, buf.Len())
	}
}

// TestRESPWriterFlushReusesBuffers: net.Buffers.WriteTo consumes its
// receiver, so a flush that handed it the writer's own scratch would
// regrow that scratch every time. A flush with a referenced payload
// allocates nothing once the first has sized the writer.
func TestRESPWriterFlushReusesBuffers(t *testing.T) {
	rw := newRESPWriter(io.Discard)
	large := bytes.Repeat([]byte("x"), respZeroCopyMin)
	flush := func() {
		rw.writeReply(Reply{Type: SimpleString, Str: "OK"})
		rw.writeBulk(large)
		rw.writeReply(Reply{Type: Integer, Int: 7})
		if _, err := rw.flush(); err != nil {
			t.Fatal(err)
		}
	}
	flush()
	if allocs := testing.AllocsPerRun(100, flush); allocs != 0 {
		t.Errorf("a flush with a referenced payload allocates %.1f times, want 0", allocs)
	}
}

// End-to-end: replies big enough for the zero-copy writev path must
// arrive byte-intact through a real server connection, interleaved
// with small replies in one pipelined batch.
func TestServerLargeBulkThroughWritev(t *testing.T) {
	addr, _ := startServer(t)
	c := dialTest(t, addr)

	const elems = 20
	want := make([][]byte, elems)
	for i := range want {
		want[i] = bytes.Repeat([]byte{byte('a' + i)}, respZeroCopyMin*2+i)
		if _, err := c.RPush("biglist", want[i]); err != nil {
			t.Fatal(err)
		}
	}
	p, err := c.Pipe("biglist", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send("LRANGE", []byte("biglist"), []byte("0"), []byte("-1")); err != nil {
		t.Fatal(err)
	}
	if err := p.Send("DBSIZE"); err != nil {
		t.Fatal(err)
	}
	if err := p.Send("LRANGE", []byte("biglist"), []byte("5"), []byte("9")); err != nil {
		t.Fatal(err)
	}
	reps, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 {
		t.Fatalf("%d replies, want 3", len(reps))
	}
	if len(reps[0].Array) != elems {
		t.Fatalf("full LRANGE returned %d elements, want %d", len(reps[0].Array), elems)
	}
	for i, el := range reps[0].Array {
		if !bytes.Equal(el.Bulk, want[i]) {
			t.Fatalf("element %d corrupted through writev path (len %d, want %d)",
				i, len(el.Bulk), len(want[i]))
		}
	}
	if reps[1].Type != Integer || reps[1].Int != 1 {
		t.Errorf("interleaved DBSIZE = %+v, want 1", reps[1])
	}
	for i, el := range reps[2].Array {
		if !bytes.Equal(el.Bulk, want[5+i]) {
			t.Fatalf("windowed element %d corrupted", i)
		}
	}
}
