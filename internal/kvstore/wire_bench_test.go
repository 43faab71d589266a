package kvstore

import (
	"bufio"
	"bytes"
	"io"
	"testing"
	"time"
)

// Wire/data-plane benchmarks: parsing and framing in isolation, then
// full client↔server round trips over loopback TCP. The RPUSH pair
// (per-record vs batched variadic) is the microcosm of the bulk
// shipping overhaul — same list contents, O(records) vs
// O(records/chunk) commands.

func benchServerClient(b *testing.B) *Client {
	b.Helper()
	srv := NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

// commandWire frames one command into raw bytes.
func commandWire(b *testing.B, name string, args ...[]byte) []byte {
	b.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteCommand(w, name, args...); err != nil {
		b.Fatal(err)
	}
	w.Flush()
	return buf.Bytes()
}

// BenchmarkWriteCommand measures framing cost alone: a 3-arg SET into
// a discarded writer. The pooled framer must not allocate.
func BenchmarkWriteCommand(b *testing.B) {
	w := bufio.NewWriter(io.Discard)
	key := []byte("bench:key")
	val := bytes.Repeat([]byte("v"), 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteCommand(w, "SET", key, val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadCommandInto is the command decoder — parse plus the one
// name resolution the server dispatches on — over one reusable arena.
// Steady state must be allocation-free.
func BenchmarkReadCommandInto(b *testing.B) {
	wire := commandWire(b, "SET", []byte("bench:key"), bytes.Repeat([]byte("v"), 64))
	rd := bytes.NewReader(wire)
	br := bufio.NewReader(rd)
	var cb CommandBuffer
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(wire)
		br.Reset(rd)
		if _, _, err := ReadCommandInto(br, &cb, MaxBulkLen); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadReply is the reply decoder over a 64-byte bulk string:
// one allocation, the payload the caller keeps.
func BenchmarkReadReply(b *testing.B) {
	wire := []byte("$64\r\n" + string(bytes.Repeat([]byte("v"), 64)) + "\r\n")
	rd := bytes.NewReader(wire)
	br := bufio.NewReader(rd)
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(wire)
		br.Reset(rd)
		if _, err := ReadReply(br); err != nil {
			b.Fatal(err)
		}
	}
}

// runPipelined drives one command per op through a width-128 pipeline,
// finishing every batch the way the shipping paths do: Send, Finish,
// replies owned by the caller.
func runPipelined(b *testing.B, c *Client, send func(p *Pipeline, i int) error) {
	b.Helper()
	p, err := c.Pipe("", 128)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 1024
	for done := 0; done < b.N; {
		n := batch
		if b.N-done < n {
			n = b.N - done
		}
		for j := 0; j < n; j++ {
			if err := send(p, done+j); err != nil {
				b.Fatal(err)
			}
		}
		out, err := p.Finish()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range out {
			if err := r.Err(); err != nil {
				b.Fatal(err)
			}
		}
		done += n
	}
}

// BenchmarkPipelinedSET: 64-byte SETs over loopback.
func BenchmarkPipelinedSET(b *testing.B) {
	c := benchServerClient(b)
	key := []byte("bench:set")
	val := bytes.Repeat([]byte("v"), 64)
	b.SetBytes(int64(len(val)))
	b.ReportAllocs()
	b.ResetTimer()
	runPipelined(b, c, func(p *Pipeline, _ int) error {
		return p.Send("SET", key, val)
	})
}

// BenchmarkPipelinedGET: 64-byte GETs over loopback; every reply's
// payload is a fresh allocation the caller keeps.
func BenchmarkPipelinedGET(b *testing.B) {
	c := benchServerClient(b)
	if err := c.Set("bench:get", bytes.Repeat([]byte("v"), 64)); err != nil {
		b.Fatal(err)
	}
	key := []byte("bench:get")
	b.SetBytes(64)
	b.ReportAllocs()
	b.ResetTimer()
	runPipelined(b, c, func(p *Pipeline, _ int) error {
		return p.Send("GET", key)
	})
}

// benchRecord matches the distrib sketch record size (4-byte index +
// 8×8-byte minhash sketch).
const benchRecordSize = 68

// BenchmarkRPUSHPerRecord is the seed shipping shape: one RPUSH
// command per record, pipelined.
func BenchmarkRPUSHPerRecord(b *testing.B) {
	c := benchServerClient(b)
	key := []byte("bench:list")
	rec := bytes.Repeat([]byte("r"), benchRecordSize)
	if _, err := c.Del(string(key)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(benchRecordSize)
	b.ReportAllocs()
	b.ResetTimer()
	runPipelined(b, c, func(p *Pipeline, _ int) error {
		return p.Send("RPUSH", key, rec)
	})
}

// BenchmarkRPUSHBatched is the overhauled shape: records ride
// many-per-command in chunked variadic RPUSHes (1 MiB payload cap), so
// commands, replies, and engine dispatches drop by the chunk factor.
func BenchmarkRPUSHBatched(b *testing.B) {
	c := benchServerClient(b)
	key := []byte("bench:list")
	rec := bytes.Repeat([]byte("r"), benchRecordSize)
	if _, err := c.Del(string(key)); err != nil {
		b.Fatal(err)
	}
	p, err := c.Pipe(string(key), 128)
	if err != nil {
		b.Fatal(err)
	}
	perCmd := (1 << 20) / benchRecordSize
	args := make([][]byte, 1, perCmd+1)
	args[0] = key
	b.SetBytes(benchRecordSize)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := perCmd
		if b.N-done < n {
			n = b.N - done
		}
		args = args[:1]
		for j := 0; j < n; j++ {
			args = append(args, rec)
		}
		if err := p.Send("RPUSH", args...); err != nil {
			b.Fatal(err)
		}
		out, err := p.Finish()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range out {
			if err := r.Err(); err != nil {
				b.Fatal(err)
			}
		}
		done += n
	}
}
