package partitioner

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"pareto/internal/kvstore"
	"pareto/internal/pivots"
)

func testCorpus(t *testing.T) *pivots.TextCorpus {
	t.Helper()
	docs := make([]pivots.Doc, 20)
	for i := range docs {
		docs[i] = pivots.Doc{Terms: []uint32{uint32(i), uint32(i + 20), uint32(i + 40)}}
	}
	c, err := pivots.NewTextCorpus(docs, 60)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testAssignment() *Assignment {
	return &Assignment{Parts: [][]int{
		{0, 2, 4, 6, 8, 10, 12, 14, 16, 18},
		{1, 3, 5, 7, 9, 11, 13, 15, 17, 19},
	}}
}

func roundtripStore(t *testing.T, st Store) {
	t.Helper()
	corpus := testCorpus(t)
	a := testAssignment()
	if err := Place(corpus, a, st); err != nil {
		t.Fatal(err)
	}
	for j := range a.Parts {
		records, err := st.ReadPartition(j)
		if err != nil {
			t.Fatalf("read partition %d: %v", j, err)
		}
		if len(records) != len(a.Parts[j]) {
			t.Fatalf("partition %d has %d records, want %d", j, len(records), len(a.Parts[j]))
		}
		// Decode and verify content matches the assigned docs.
		for i, rec := range records {
			doc, rest, err := pivots.DecodeTextRecord(rec)
			if err != nil {
				t.Fatalf("partition %d record %d: %v", j, i, err)
			}
			if len(rest) != 0 {
				t.Fatalf("partition %d record %d has %d trailing bytes", j, i, len(rest))
			}
			want := corpus.Docs[a.Parts[j][i]]
			if len(doc.Terms) != len(want.Terms) || doc.Terms[0] != want.Terms[0] {
				t.Fatalf("partition %d record %d content mismatch", j, i)
			}
		}
	}
}

func TestMemoryStoreRoundtrip(t *testing.T) {
	roundtripStore(t, NewMemoryStore())
}

func TestMemoryStoreMissingPartition(t *testing.T) {
	if _, err := NewMemoryStore().ReadPartition(3); err == nil {
		t.Error("missing partition read succeeded")
	}
}

// keepsNoCallerBytes holds st to the Store contract: it writes recs as
// partition 0, overwrites every byte of the caller's buffers once
// WritePartition has returned, and checks that the partition reads
// back as written, and still reads so once partition 1, its records in
// reverse order, has been written and read. It returns what was written.
func keepsNoCallerBytes(t *testing.T, st Store, recs [][]byte) [][]byte {
	t.Helper()
	want := make([][]byte, len(recs))
	for i, r := range recs {
		want[i] = bytes.Clone(r)
	}
	if err := st.WritePartition(0, recs); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		for i := range r {
			r[i] = 0xEE
		}
	}
	got, err := st.ReadPartition(0)
	if err != nil {
		t.Fatal(err)
	}
	other := slices.Clone(want)
	slices.Reverse(other)
	if err := st.WritePartition(1, other); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ReadPartition(1); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d records stored, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("record %d is %v, want %v", i, got[i], want[i])
		}
	}
	return want
}

// TestMemoryStoreIsolation: the store keeps copies. Mutating the
// caller's records after the write, or appending to a record read back,
// leaves every stored record unchanged.
func TestMemoryStoreIsolation(t *testing.T) {
	m := NewMemoryStore()
	want := keepsNoCallerBytes(t, m, [][]byte{{1, 0, 0, 0, 9}, {2, 0, 0, 0, 5, 6}, {}, {1, 0, 0, 0, 4}})
	got, err := m.ReadPartition(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if grown := append(r, 0xAA, 0xBB); len(grown) != len(want[i])+2 {
			t.Fatalf("record %d grew to %d bytes", i, len(grown))
		}
	}
	got, err = m.ReadPartition(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d records stored, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("record %d is %v, want %v", i, got[i], want[i])
		}
	}
}

// TestDiskAndKVStoresKeepNoCallerBytes: the other two stores keep
// nothing of the caller's buffers either (the disk store's records
// must be length-prefixed, so the empty record is left out).
func TestDiskAndKVStoresKeepNoCallerBytes(t *testing.T) {
	disk, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	kv, err := NewKVStoreKV(testClients(t, 1), 2, "isolation")
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]Store{"disk": disk, "kv": kv} {
		t.Run(name, func(t *testing.T) {
			keepsNoCallerBytes(t, st, [][]byte{{1, 0, 0, 0, 9}, {2, 0, 0, 0, 5, 6}, {1, 0, 0, 0, 4}})
		})
	}
}

func TestDiskStoreRoundtrip(t *testing.T) {
	st, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	roundtripStore(t, st)
}

func TestDiskStoreRewrite(t *testing.T) {
	st, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WritePartition(0, [][]byte{{2, 0, 0, 0, 1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := st.WritePartition(0, [][]byte{{1, 0, 0, 0, 7}}); err != nil {
		t.Fatal(err)
	}
	records, err := st.ReadPartition(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || !bytes.Equal(records[0], []byte{1, 0, 0, 0, 7}) {
		t.Errorf("rewrite left %v", records)
	}
}

func TestDiskStoreCorruptFile(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WritePartition(0, [][]byte{{200, 0, 0, 0}}); err != nil {
		t.Fatal(err) // header claims 200 bytes, none follow
	}
	if _, err := st.ReadPartition(0); err == nil {
		t.Error("corrupt partition read succeeded")
	}
	if _, err := st.ReadPartition(99); err == nil {
		t.Error("missing file read succeeded")
	}
}

// testClients spins up n store instances and returns a client per
// instance — the paper's one-store-per-node deployment in miniature.
func testClients(t *testing.T, n int) []kvstore.KV {
	t.Helper()
	clients := make([]kvstore.KV, n)
	for i := range clients {
		srv := kvstore.NewServer(nil)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		c, err := kvstore.Dial(addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients[i] = c
	}
	return clients
}

func TestKVStoreRoundtrip(t *testing.T) {
	st, err := NewKVStoreKV(testClients(t, 2), 32, "test")
	if err != nil {
		t.Fatal(err)
	}
	roundtripStore(t, st)
	// Rewriting must replace, not append.
	if err := st.WritePartition(0, [][]byte{{1, 0, 0, 0, 5}}); err != nil {
		t.Fatal(err)
	}
	records, err := st.ReadPartition(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 {
		t.Errorf("rewrite left %d records", len(records))
	}
}

func TestNewKVStoreValidation(t *testing.T) {
	if _, err := NewKVStoreKV(nil, 4, "x"); err == nil {
		t.Error("no clients accepted")
	}
	srv := kvstore.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := kvstore.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := NewKVStoreKV([]kvstore.KV{c}, 0, "x"); err == nil {
		t.Error("zero width accepted")
	}
	st, err := NewKVStoreKV([]kvstore.KV{c}, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if st.key(0) != "partition:0" {
		t.Errorf("default prefix key %q", st.key(0))
	}
	if _, err := st.clientFor(-1); err == nil {
		t.Error("negative partition accepted")
	}
}
