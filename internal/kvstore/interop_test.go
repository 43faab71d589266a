package kvstore

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// The wire-compatibility contract: the pooled/zero-copy overhaul must
// keep RESP framing byte-identical, so a pre-overhaul peer and a
// post-overhaul peer interoperate in both directions. The "existing"
// peer on each side is represented by hand-written raw RESP bytes —
// exactly what the seed implementation put on (and expected from) the
// wire.

// TestWriteCommandGoldenBytes pins the client's command framing to the
// seed encoding, byte for byte.
func TestWriteCommandGoldenBytes(t *testing.T) {
	cases := []struct {
		name string
		args [][]byte
		wire string
	}{
		{"SET", [][]byte{[]byte("k"), []byte("v")}, "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n"},
		{"PING", nil, "*1\r\n$4\r\nPING\r\n"},
		{"RPUSH", [][]byte{[]byte("list"), []byte("a"), []byte(""), []byte("ccc")},
			"*5\r\n$5\r\nRPUSH\r\n$4\r\nlist\r\n$1\r\na\r\n$0\r\n\r\n$3\r\nccc\r\n"},
		{"GET", [][]byte{[]byte("a key with \r\n inside")},
			"*2\r\n$3\r\nGET\r\n$20\r\na key with \r\n inside\r\n"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := WriteCommand(w, c.name, c.args...); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		if buf.String() != c.wire {
			t.Errorf("%s framed as %q, want %q", c.name, buf.String(), c.wire)
		}
	}
}

// TestServerSpeaksToExistingClient drives the new server with a raw
// byte stream a seed client would send — including a pipelined batch —
// and asserts the raw reply bytes are exactly what the seed client
// expects to parse.
func TestServerSpeaksToExistingClient(t *testing.T) {
	srv := NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	// A pipelined batch: SET, GET, RPUSH ×2 (variadic), LRANGE, GET of a
	// missing key.
	raw := "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n" +
		"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n" +
		"*4\r\n$5\r\nRPUSH\r\n$1\r\nl\r\n$1\r\na\r\n$1\r\nb\r\n" +
		"*4\r\n$6\r\nLRANGE\r\n$1\r\nl\r\n$1\r\n0\r\n$2\r\n-1\r\n" +
		"*2\r\n$3\r\nGET\r\n$4\r\nnope\r\n"
	if _, err := conn.Write([]byte(raw)); err != nil {
		t.Fatal(err)
	}
	want := "+OK\r\n" +
		"$1\r\nv\r\n" +
		":2\r\n" +
		"*2\r\n$1\r\na\r\n$1\r\nb\r\n" +
		"$-1\r\n"
	got := make([]byte, len(want))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("reading replies: %v (got %q so far)", err, got)
	}
	if string(got) != want {
		t.Errorf("raw replies %q, want %q", got, want)
	}
}

// TestClientSpeaksToExistingServer points the new client at a scripted
// raw-RESP server (the seed server's exact reply bytes) and asserts
// commands frame and replies parse as before.
func TestClientSpeaksToExistingServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	wantCmd := "*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		got := make([]byte, len(wantCmd))
		if _, err := io.ReadFull(conn, got); err != nil {
			done <- err
			return
		}
		if string(got) != wantCmd {
			t.Errorf("server saw %q, want %q", got, wantCmd)
		}
		_, err = conn.Write([]byte("$5\r\nhello\r\n"))
		done <- err
	}()
	c, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	val, err := c.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(val) != "hello" {
		t.Errorf("client parsed %q, want %q", val, "hello")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
