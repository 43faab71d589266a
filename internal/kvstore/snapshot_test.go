package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func populatedEngine() *Engine {
	e := NewEngine()
	for i := 0; i < 50; i++ {
		e.Do("SET", []byte(fmt.Sprintf("str%d", i)), []byte(fmt.Sprintf("value-%d", i)))
	}
	for i := 0; i < 10; i++ {
		key := []byte(fmt.Sprintf("list%d", i))
		for j := 0; j < 20; j++ {
			e.Do("RPUSH", key, []byte{byte(i), byte(j), 0, '\r', '\n'})
		}
	}
	e.Do("SET", []byte("empty"), nil)
	e.Do("INCR", []byte("counter"))
	return e
}

func enginesEqual(t *testing.T, a, b *Engine) {
	t.Helper()
	if a.Size() != b.Size() {
		t.Fatalf("sizes %d vs %d", a.Size(), b.Size())
	}
	for i := 0; i < 50; i++ {
		k := []byte(fmt.Sprintf("str%d", i))
		ra, rb := a.Do("GET", k), b.Do("GET", k)
		if !bytes.Equal(ra.Bulk, rb.Bulk) {
			t.Fatalf("key %s: %q vs %q", k, ra.Bulk, rb.Bulk)
		}
	}
	for i := 0; i < 10; i++ {
		k := []byte(fmt.Sprintf("list%d", i))
		ra := a.Do("LRANGE", k, []byte("0"), []byte("-1"))
		rb := b.Do("LRANGE", k, []byte("0"), []byte("-1"))
		if len(ra.Array) != len(rb.Array) {
			t.Fatalf("list %s: %d vs %d elements", k, len(ra.Array), len(rb.Array))
		}
		for j := range ra.Array {
			if !bytes.Equal(ra.Array[j].Bulk, rb.Array[j].Bulk) {
				t.Fatalf("list %s element %d differs", k, j)
			}
		}
	}
}

func TestSnapshotRoundtrip(t *testing.T) {
	src := populatedEngine()
	var buf bytes.Buffer
	if err := src.WriteSnapshotMark(&buf, AOFMark{}); err != nil {
		t.Fatal(err)
	}
	dst := NewEngine()
	dst.Do("SET", []byte("stale"), []byte("gone")) // must be flushed
	if _, err := dst.ReadSnapshotMark(&buf); err != nil {
		t.Fatal(err)
	}
	if rep := dst.Do("GET", []byte("stale")); rep.Type != NullBulk {
		t.Error("stale key survived snapshot load")
	}
	enginesEqual(t, src, dst)
}

func TestSnapshotFileAtomicity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.pkvs")
	src := populatedEngine()
	if err := src.SaveSnapshotFileMark(path, AOFMark{}); err != nil {
		t.Fatal(err)
	}
	// No temp litter.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("%d files in snapshot dir, want 1", len(entries))
	}
	dst := NewEngine()
	if _, err := dst.LoadSnapshotFileMark(path); err != nil {
		t.Fatal(err)
	}
	enginesEqual(t, src, dst)
}

func TestSnapshotLoadMissingFile(t *testing.T) {
	e := NewEngine()
	_, err := e.LoadSnapshotFileMark(filepath.Join(t.TempDir(), "nope.pkvs"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("err = %v, want ErrNotExist", err)
	}
}

func TestSnapshotCorruptImages(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("PKVS\x09"),                       // bad version
		[]byte("PKVS\x01\x07"),                   // unknown kind
		[]byte("PKVS\x01\x01\x05\x00\x00\x00ab"), // truncated key
		append([]byte("PKVS\x01\x01\x02\x00\x00\x00ab"), 0xff, 0xff, 0xff, 0x7f), // oversized value
	}
	for i, img := range cases {
		e := NewEngine()
		if _, err := e.ReadSnapshotMark(bytes.NewReader(img)); err == nil {
			t.Errorf("case %d: corrupt snapshot accepted", i)
		}
	}
}

func TestServerSnapshotPersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "node0.pkvs")

	// First lifetime: write data, SAVE explicitly, then Close (which
	// also saves).
	srv := NewServer(nil)
	if err := srv.EnableSnapshot(path); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set("persisted", []byte("yes")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RPush("plist", []byte("a"), []byte("b")); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Do("SAVE")
	if err != nil || rep.Err() != nil {
		t.Fatalf("SAVE: %v %v", err, rep.Err())
	}
	c.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Second lifetime: the data must come back.
	srv2 := NewServer(nil)
	if err := srv2.EnableSnapshot(path); err != nil {
		t.Fatal(err)
	}
	addr2, err := srv2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	c2, err := Dial(addr2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got, err := c2.Get("persisted")
	if err != nil || string(got) != "yes" {
		t.Fatalf("persisted = %q, %v", got, err)
	}
	els, err := c2.LRange("plist", 0, -1)
	if err != nil || len(els) != 2 || string(els[0]) != "a" {
		t.Fatalf("plist = %q, %v", els, err)
	}
}

func TestServerSaveWithoutSnapshotConfigured(t *testing.T) {
	addr, _ := startServer(t)
	c := dialTest(t, addr)
	rep, err := c.Do("SAVE")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err() == nil {
		t.Error("SAVE without configuration must error")
	}
}

func BenchmarkSnapshotWrite(b *testing.B) {
	e := NewEngine()
	payload := bytes.Repeat([]byte("x"), 256)
	for i := 0; i < 1000; i++ {
		e.Do("RPUSH", []byte("bulk"), payload)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := e.WriteSnapshotMark(&buf, AOFMark{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestart times what bounds a node's recovery: one restart
// (EnableSnapshot + EnableAOF, then Kill) of a server whose N keys
// live in an AOF alone, or in a snapshot beside an empty AOF — the
// state a SAVE leaves. file_B is the bytes the restart reads.
func BenchmarkRestart(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		for _, mode := range []string{"aof", "snapshot"} {
			b.Run(fmt.Sprintf("%s/%dk", mode, n/1000), func(b *testing.B) {
				dir := b.TempDir()
				snap, aof := filepath.Join(dir, "node.pkvs"), filepath.Join(dir, "node.aof")
				a, err := OpenAOF(aof, time.Millisecond, nil)
				if err != nil {
					b.Fatal(err)
				}
				e := NewEngine()
				val := bytes.Repeat([]byte("v"), 32)
				for i := 0; i < n; i++ {
					args := [][]byte{[]byte(fmt.Sprintf("key:%07d", i)), val}
					if mode == "aof" {
						_, err = a.Append("SET", args)
					} else {
						e.Do("SET", args...)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				if err := a.Close(); err != nil {
					b.Fatal(err)
				}
				read := aof
				if mode == "snapshot" {
					if err := e.SaveSnapshotFileMark(snap, AOFMark{}); err != nil {
						b.Fatal(err)
					}
					read = snap
				}
				fi, err := os.Stat(read)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					srv := NewServer(nil)
					if mode == "snapshot" {
						if err := srv.EnableSnapshot(snap); err != nil {
							b.Fatal(err)
						}
					}
					if err := srv.EnableAOF(aof, 0); err != nil {
						b.Fatal(err)
					}
					if got := srv.Engine().Size(); got != int64(n) {
						b.Fatalf("restart holds %d keys, want %d", got, n)
					}
					srv.Kill()
				}
				b.ReportMetric(float64(fi.Size()), "file_B")
			})
		}
	}
}
