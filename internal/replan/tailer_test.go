package replan

import (
	"bytes"
	"testing"
	"time"

	"pareto/internal/kvstore"
	"pareto/internal/pivots"
	"pareto/internal/strata"
)

// TestTailerFeedsLoopFromKVStream round-trips the live ingest path: a
// producer RPUSHes wire records onto a kvstore list, the Tailer polls
// them out and ingests each into the loop with the exact raw bytes.
func TestTailerFeedsLoopFromKVStream(t *testing.T) {
	docs, vocab := replanDocs(t)
	full, err := pivots.NewTextCorpus(docs, vocab)
	if err != nil {
		t.Fatal(err)
	}
	split := len(docs) * 3 / 4
	base, err := pivots.NewTextCorpus(docs[:split], vocab)
	if err != nil {
		t.Fatal(err)
	}
	l, err := New(base, paperCluster(t, 4), weightProfile(full), Config{
		Core:  loopCoreConfig(2),
		Drift: strata.DriftConfig{Threshold: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}

	srv := kvstore.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := kvstore.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const key = "replan:stream"
	for i := split; i < full.Len(); i++ {
		if _, err := client.RPush(key, full.AppendRecord(nil, i)); err != nil {
			t.Fatal(err)
		}
	}

	tl := &Tailer{Client: client, Key: key, Kind: pivots.TextData, window: 7}
	n, err := tl.Poll(l)
	if err != nil {
		t.Fatal(err)
	}
	want := full.Len() - split
	if n != want {
		t.Fatalf("Poll ingested %d records, want %d", n, want)
	}
	if tl.cursor != int64(want) {
		t.Fatalf("cursor = %d, want %d", tl.cursor, want)
	}
	if l.Len() != full.Len() {
		t.Fatalf("loop corpus has %d records, want %d", l.Len(), full.Len())
	}
	if l.Pending() != want {
		t.Fatalf("pending = %d, want %d", l.Pending(), want)
	}

	// Ingested records carry the producer's exact wire bytes, and keep
	// them once a later scan on the client has read other bytes into
	// the window buffer the poll borrowed and overwritten its batches.
	junk := make([][]byte, want)
	for i := range junk {
		junk[i] = bytes.Repeat([]byte{0xff}, len(full.AppendRecord(nil, split+i)))
	}
	if _, err := client.RPush("replan:junk", junk...); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for i := split; i < full.Len(); i++ {
			got := l.corpus.AppendRecord(nil, i)
			if string(got) != string(full.AppendRecord(nil, i)) {
				t.Fatalf("pass %d: record %d bytes differ from wire form", pass, i)
			}
		}
		if err := client.LRangeChunked("replan:junk", 7, func(batch [][]byte) error {
			for _, el := range batch {
				clear(el)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	// An idle poll is a no-op.
	if n, err = tl.Poll(l); err != nil || n != 0 {
		t.Fatalf("idle poll = (%d, %v), want (0, nil)", n, err)
	}

	// A corrupt element stops the cursor in front of itself so a
	// repaired stream can be re-polled.
	if _, err := client.RPush(key, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	before := tl.cursor
	if _, err := tl.Poll(l); err == nil {
		t.Fatal("Poll decoded a corrupt record")
	}
	if tl.cursor != before {
		t.Fatalf("cursor advanced past corrupt record: %d → %d", before, tl.cursor)
	}

	// Kind mismatch is rejected up front.
	bad := &Tailer{Client: client, Key: key, Kind: pivots.GraphData}
	if _, err := bad.Poll(l); err == nil {
		t.Fatal("kind-mismatched tailer polled successfully")
	}
}
