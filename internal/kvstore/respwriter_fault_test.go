package kvstore

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"pareto/internal/faultnet"
	"pareto/internal/telemetry"
)

// TestRespWriterPartialWriteMidBatch proves fault injection reaches the
// reply writer's gather-write path. Replies holding bulks at or above
// respZeroCopyMin leave flush() as a net.Buffers writev; on a wrapped
// (non-*net.TCPConn) connection that degrades to one Write per buffer,
// so a scripted Partial tears the batch between buffers — the classic
// torn writev. The client on the torn connection must see a clean
// error, and the server must keep serving fresh connections intact.
func TestRespWriterPartialWriteMidBatch(t *testing.T) {
	freg := telemetry.NewRegistry()
	srv := NewServer(nil)
	// Op 0 is the read of the pipelined request batch; ops 1+ are the
	// per-buffer writes of the reply flush. Partial on op 2 lands inside
	// the gather batch: after the first buffer, mid-way through the next.
	plan := faultnet.Plan{
		Script:     []faultnet.Action{faultnet.Pass, faultnet.Pass, faultnet.Partial},
		FaultConns: 1,
		Telemetry:  freg,
	}
	const nKeys = 4
	val := bytes.Repeat([]byte("z"), respZeroCopyMin+64)
	for i := 0; i < nKeys; i++ {
		if rep := srv.Engine().Do("SET", []byte(fmt.Sprintf("big%d", i)), val); rep.Err() != nil {
			t.Fatal(rep.Err())
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(plan.Listener(ln)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	addr := ln.Addr().String()

	// Raw pipelined batch: nKeys GETs in one flush, so the server
	// answers with one multi-buffer gather-write.
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	bw := bufio.NewWriter(conn)
	for i := 0; i < nKeys; i++ {
		if err := WriteCommand(bw, "GET", []byte(fmt.Sprintf("big%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	var readErr error
	complete := 0
	for i := 0; i < nKeys; i++ {
		rep, err := ReadReply(br)
		if err != nil {
			readErr = err
			break
		}
		if !bytes.Equal(rep.Bulk, val) {
			t.Fatalf("reply %d corrupt: %d bytes", i, len(rep.Bulk))
		}
		complete++
	}
	if readErr == nil {
		t.Fatal("read all replies through a torn writev batch")
	}
	if complete >= nKeys {
		t.Fatalf("complete replies = %d, want < %d", complete, nKeys)
	}
	// The injection really happened on the write side — the writev path
	// went through the wrapper, not around it.
	if n := freg.Snapshot().Counters[`faultnet_injected_total{action="partial"}`]; n != 1 {
		t.Fatalf("partial injections = %d, want 1 (reply path bypassed the conn wrapper?)", n)
	}

	// The torn batch was one connection's problem: a fresh connection
	// (past FaultConns) gets every reply whole.
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < nKeys; i++ {
		got, err := c.Get(fmt.Sprintf("big%d", i))
		if err != nil || !bytes.Equal(got, val) {
			t.Fatalf("clean conn Get(big%d): %d bytes, %v", i, len(got), err)
		}
	}
}
