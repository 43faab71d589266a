package partitioner

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"pareto/internal/pivots"
)

// bigTestCorpus builds an n-doc corpus with distinct, position-tagged
// content so any cross-partition mixup is caught byte-for-byte.
func bigTestCorpus(t testing.TB, n int) *pivots.TextCorpus {
	t.Helper()
	docs := make([]pivots.Doc, n)
	for i := range docs {
		docs[i] = pivots.Doc{Terms: []uint32{uint32(i), uint32(i + n), uint32(i + 2*n)}}
	}
	c, err := pivots.NewTextCorpus(docs, 3*n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func stripedAssignment(n, p int) *Assignment {
	parts := make([][]int, p)
	for i := 0; i < n; i++ {
		parts[i%p] = append(parts[i%p], i)
	}
	return &Assignment{Parts: parts}
}

// TestPlaceParallelMatchesSequential places the same assignment
// sequentially and at several worker counts and asserts every store
// ends up byte-identical.
func TestPlaceParallelMatchesSequential(t *testing.T) {
	const n, p = 200, 7
	corpus := bigTestCorpus(t, n)
	a := stripedAssignment(n, p)
	ref := NewMemoryStore()
	if err := PlaceParallel(corpus, a, ref, 1); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 2, 4, 16} {
		st := NewMemoryStore()
		if err := PlaceParallel(corpus, a, st, w); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for j := 0; j < p; j++ {
			want, err := ref.ReadPartition(j)
			if err != nil {
				t.Fatal(err)
			}
			got, err := st.ReadPartition(j)
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			if len(got) != len(want) {
				t.Fatalf("workers=%d: partition %d has %d records, want %d", w, j, len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("workers=%d: partition %d record %d differs", w, j, i)
				}
			}
		}
	}
}

// seqOnlyStore wraps MemoryStore but hides WriteGroup, modeling a
// third-party Store with an unknown concurrency contract; Place must
// fall back to strictly sequential writes and still succeed.
type seqOnlyStore struct{ inner *MemoryStore }

func (s *seqOnlyStore) WritePartition(id int, records [][]byte) error {
	return s.inner.WritePartition(id, records)
}
func (s *seqOnlyStore) ReadPartition(id int) ([][]byte, error) {
	return s.inner.ReadPartition(id)
}

func TestPlaceParallelSequentialFallback(t *testing.T) {
	const n, p = 60, 4
	corpus := bigTestCorpus(t, n)
	a := stripedAssignment(n, p)
	st := &seqOnlyStore{inner: NewMemoryStore()}
	if err := PlaceParallel(corpus, a, st, 8); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < p; j++ {
		recs, err := st.ReadPartition(j)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != len(a.Parts[j]) {
			t.Fatalf("partition %d has %d records, want %d", j, len(recs), len(a.Parts[j]))
		}
	}
}

// failingStore fails writes for chosen partitions; PlaceParallel must
// report the lowest-numbered failing group at any worker count.
type failingStore struct {
	inner *MemoryStore
	fail  map[int]bool
}

func (s *failingStore) WritePartition(id int, records [][]byte) error {
	if s.fail[id] {
		return fmt.Errorf("synthetic failure %d", id)
	}
	return s.inner.WritePartition(id, records)
}
func (s *failingStore) ReadPartition(id int) ([][]byte, error) { return s.inner.ReadPartition(id) }
func (s *failingStore) WriteGroup(id int) int                  { return id }

func TestPlaceParallelDeterministicError(t *testing.T) {
	const n, p = 60, 12
	corpus := bigTestCorpus(t, n)
	a := stripedAssignment(n, p)
	for _, w := range []int{1, 3, 8} {
		st := &failingStore{inner: NewMemoryStore(), fail: map[int]bool{3: true, 9: true}}
		err := PlaceParallel(corpus, a, st, w)
		want := "partitioner: placing partition 3: synthetic failure 3"
		if err == nil || err.Error() != want {
			t.Errorf("workers=%d: err = %v, want %q", w, err, want)
		}
	}
}

// TestPlaceParallelAllocatesOneScratchPerWorker: placing P partitions
// into a MemoryStore allocates the store's copies and, beside them, at
// most one largest partition's scratch per worker, not a serialized
// copy of every partition (which doubles what placing allocates).
func TestPlaceParallelAllocatesOneScratchPerWorker(t *testing.T) {
	const n, p = 40000, 8
	corpus := bigTestCorpus(t, n)
	a := stripedAssignment(n, p)
	header := int(unsafe.Sizeof([]byte(nil)))
	copies, largest := 0, 0
	for _, part := range a.Parts {
		size := header * len(part)
		for _, r := range part {
			size += corpus.RecordSize(r)
		}
		copies += size
		largest = max(largest, size)
	}
	for _, workers := range []int{1, 2} {
		st := NewMemoryStore()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := PlaceParallel(corpus, a, st, workers); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		// Slack for size-class rounding (a large allocation takes whole
		// pages) and the fan-out's own bookkeeping.
		slack := copies / 10
		if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(copies+workers*largest+slack); got > limit {
			t.Errorf("workers=%d: placing %d partitions allocated %d B; copies %d B + %d × %d B scratch + %d B slack allow %d",
				workers, p, got, copies, workers, largest, slack, limit)
		}
	}
}
