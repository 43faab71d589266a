package replan

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"pareto/internal/partitioner"
)

func recs(vals ...byte) [][]byte {
	out := make([][]byte, len(vals))
	for i, v := range vals {
		out[i] = []byte{v}
	}
	return out
}

func assertPartition(t *testing.T, s *EpochStore, j int, want [][]byte) {
	t.Helper()
	got, err := s.ReadPartition(j)
	if err != nil {
		t.Fatalf("read partition %d: %v", j, err)
	}
	if len(got) != len(want) {
		t.Fatalf("partition %d has %d records, want %d", j, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("partition %d record %d = %v, want %v", j, i, got[i], want[i])
		}
	}
}

func TestEpochStoreCommitFlipsReads(t *testing.T) {
	st, err := NewEpochStore(partitioner.NewMemoryStore(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ReadPartition(0); err == nil {
		t.Error("unplaced partition readable")
	}
	txn := st.Begin()
	for j := 0; j < 3; j++ {
		if err := txn.Write(j, recs(byte(j))); err != nil {
			t.Fatal(err)
		}
	}
	// Staged but uncommitted: still unreadable.
	if _, err := st.ReadPartition(1); err == nil {
		t.Error("staged partition readable before commit")
	}
	txn.Commit()
	for j := 0; j < 3; j++ {
		assertPartition(t, st, j, recs(byte(j)))
		if st.Epoch(j) != 0 {
			t.Errorf("partition %d at epoch %d, want 0", j, st.Epoch(j))
		}
	}
	// A second committed transaction over a subset advances only that
	// subset's epochs.
	txn = st.Begin()
	if err := txn.Write(1, recs(42)); err != nil {
		t.Fatal(err)
	}
	txn.Commit()
	assertPartition(t, st, 0, recs(0))
	assertPartition(t, st, 1, recs(42))
	if st.Epoch(0) != 0 || st.Epoch(1) != 1 {
		t.Errorf("epochs %d/%d, want 0/1", st.Epoch(0), st.Epoch(1))
	}
}

func TestEpochStoreAbandonedTxnAborts(t *testing.T) {
	st, err := NewEpochStore(partitioner.NewMemoryStore(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WritePartition(0, recs(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.WritePartition(1, recs(2)); err != nil {
		t.Fatal(err)
	}
	// Stage new contents for both partitions, then walk away: reads must
	// keep serving the committed epoch, and a later transaction reuses
	// the staging slots safely.
	dead := st.Begin()
	if err := dead.Write(0, recs(9)); err != nil {
		t.Fatal(err)
	}
	if err := dead.Write(1, recs(9)); err != nil {
		t.Fatal(err)
	}
	assertPartition(t, st, 0, recs(1))
	assertPartition(t, st, 1, recs(2))
	txn := st.Begin()
	if err := txn.Write(0, recs(7)); err != nil {
		t.Fatal(err)
	}
	txn.Commit()
	assertPartition(t, st, 0, recs(7))
	assertPartition(t, st, 1, recs(2))
}

// groupedBase exposes a WriteGroup so the epoch store's delegation is
// observable.
type groupedBase struct {
	*partitioner.MemoryStore
}

func (g groupedBase) WriteGroup(id int) int { return id % 2 }

func TestEpochStoreWriteGroupDelegation(t *testing.T) {
	st, err := NewEpochStore(groupedBase{partitioner.NewMemoryStore()}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Next write for partition j lands at base id 0·4+j = j, so groups
	// follow the base's id parity.
	for j := 0; j < 4; j++ {
		if got, want := st.WriteGroup(j), j%2; got != want {
			t.Errorf("WriteGroup(%d) = %d, want %d", j, got, want)
		}
	}
	// A base without grouping isolates every partition.
	flat, err := NewEpochStore(partitioner.NewMemoryStore(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if flat.WriteGroup(2) != 2 {
		t.Errorf("ungrouped base: WriteGroup(2) = %d", flat.WriteGroup(2))
	}
}

func TestEpochStoreValidation(t *testing.T) {
	if _, err := NewEpochStore(nil, 2); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := NewEpochStore(partitioner.NewMemoryStore(), 0); err == nil {
		t.Error("p = 0 accepted")
	}
	st, _ := NewEpochStore(partitioner.NewMemoryStore(), 2)
	for _, j := range []int{-1, 2} {
		if _, err := st.ReadPartition(j); err == nil {
			t.Errorf("read of partition %d accepted", j)
		}
		if err := st.WritePartition(j, recs(1)); err == nil {
			t.Errorf("write of partition %d accepted", j)
		}
	}
}

func TestEpochStoreConcurrentTxnWrites(t *testing.T) {
	p := 8
	st, err := NewEpochStore(partitioner.NewMemoryStore(), p)
	if err != nil {
		t.Fatal(err)
	}
	txn := st.Begin()
	errs := make(chan error, p)
	for j := 0; j < p; j++ {
		go func(j int) { errs <- txn.Write(j, recs(byte(j), byte(j+1))) }(j)
	}
	for j := 0; j < p; j++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	txn.Commit()
	for j := 0; j < p; j++ {
		assertPartition(t, st, j, recs(byte(j), byte(j+1)))
	}
}

func TestEpochStoreManyEpochs(t *testing.T) {
	st, err := NewEpochStore(partitioner.NewMemoryStore(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 10; e++ {
		txn := st.Begin()
		for j := 0; j < 2; j++ {
			if err := txn.Write(j, [][]byte{[]byte(fmt.Sprintf("e%d-p%d", e, j))}); err != nil {
				t.Fatal(err)
			}
		}
		txn.Commit()
	}
	for j := 0; j < 2; j++ {
		assertPartition(t, st, j, [][]byte{[]byte(fmt.Sprintf("e9-p%d", j))})
		if st.Epoch(j) != 9 {
			t.Errorf("partition %d at epoch %d, want 9", j, st.Epoch(j))
		}
	}
}

// idRecorder is a MemoryStore that remembers every id ever written.
type idRecorder struct {
	*partitioner.MemoryStore
	mu  sync.Mutex
	ids map[int]struct{}
}

func (r *idRecorder) WritePartition(id int, records [][]byte) error {
	r.mu.Lock()
	r.ids[id] = struct{}{}
	r.mu.Unlock()
	return r.MemoryStore.WritePartition(id, records)
}

// TestEpochStoreReclaimsSupersededEpochs is the epoch-leak regression:
// however many transactions commit (and abort in between), the base
// only ever sees the 2p slot ids, so a stage's replace reclaims the
// epoch before last instead of every epoch living forever.
func TestEpochStoreReclaimsSupersededEpochs(t *testing.T) {
	const p, epochs = 3, 50
	base := &idRecorder{MemoryStore: partitioner.NewMemoryStore(), ids: make(map[int]struct{})}
	st, err := NewEpochStore(base, p)
	if err != nil {
		t.Fatal(err)
	}
	content := func(e, j int) [][]byte { return [][]byte{[]byte(fmt.Sprintf("e%d-p%d", e, j))} }
	for e := 0; e < epochs; e++ {
		if e%7 == 3 {
			// An abandoned stage in between tears only the staging slot.
			dead := st.Begin()
			if err := dead.Write(e%p, recs(0xdd)); err != nil {
				t.Fatal(err)
			}
		}
		txn := st.Begin()
		for j := 0; j < p; j++ {
			// Partition 0 sits out the odd transactions, so slots of
			// different partitions are at different parities.
			if j == 0 && e%2 == 1 {
				continue
			}
			if err := txn.Write(j, content(e, j)); err != nil {
				t.Fatal(err)
			}
		}
		txn.Commit()
		for j := 0; j < p; j++ {
			want := e
			if j == 0 && e%2 == 1 {
				want = e - 1
			}
			assertPartition(t, st, j, content(want, j))
		}
	}
	if len(base.ids) > 2*p {
		t.Errorf("%d transactions wrote %d distinct base ids, want at most 2p = %d", epochs, len(base.ids), 2*p)
	}
	for id := range base.ids {
		if id < 0 || id >= 2*p {
			t.Errorf("base id %d outside the two slots [0, %d)", id, 2*p)
		}
	}
}
