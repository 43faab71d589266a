package replan

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
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

// commitWhole stages partition j's contents whole and commits them
// alone.
func commitWhole(st *EpochStore, j int, records [][]byte) error {
	txn := st.Begin()
	if err := txn.WriteSuffix(j, 0, records); err != nil {
		return err
	}
	txn.Commit()
	return nil
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
		if err := txn.WriteSuffix(j, 0, recs(byte(j))); err != nil {
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
		if st.parts[j].epoch != 0 {
			t.Errorf("partition %d at epoch %d, want 0", j, st.parts[j].epoch)
		}
	}
	// A second committed transaction over a subset advances only that
	// subset's epochs.
	txn = st.Begin()
	if err := txn.WriteSuffix(1, 0, recs(42)); err != nil {
		t.Fatal(err)
	}
	txn.Commit()
	assertPartition(t, st, 0, recs(0))
	assertPartition(t, st, 1, recs(42))
	if st.parts[0].epoch != 0 || st.parts[1].epoch != 1 {
		t.Errorf("epochs %d/%d, want 0/1", st.parts[0].epoch, st.parts[1].epoch)
	}
}

func TestEpochStoreAbandonedTxnAborts(t *testing.T) {
	st, err := NewEpochStore(partitioner.NewMemoryStore(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := commitWhole(st, 0, recs(1)); err != nil {
		t.Fatal(err)
	}
	if err := commitWhole(st, 1, recs(2)); err != nil {
		t.Fatal(err)
	}
	// Stage new contents for both partitions, then walk away: reads must
	// keep serving the committed epoch, and a later transaction reuses
	// the staging slots safely.
	dead := st.Begin()
	if err := dead.WriteSuffix(0, 0, recs(9)); err != nil {
		t.Fatal(err)
	}
	if err := dead.WriteSuffix(1, 0, recs(9)); err != nil {
		t.Fatal(err)
	}
	assertPartition(t, st, 0, recs(1))
	assertPartition(t, st, 1, recs(2))
	txn := st.Begin()
	if err := txn.WriteSuffix(0, 0, recs(7)); err != nil {
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
		if err := commitWhole(st, j, recs(1)); err == nil {
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
		go func(j int) { errs <- txn.WriteSuffix(j, 0, recs(byte(j), byte(j+1))) }(j)
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
			if err := txn.WriteSuffix(j, 0, [][]byte{[]byte(fmt.Sprintf("e%d-p%d", e, j))}); err != nil {
				t.Fatal(err)
			}
		}
		txn.Commit()
	}
	for j := 0; j < 2; j++ {
		assertPartition(t, st, j, [][]byte{[]byte(fmt.Sprintf("e9-p%d", j))})
		if st.parts[j].epoch != 9 {
			t.Errorf("partition %d at epoch %d, want 9", j, st.parts[j].epoch)
		}
	}
}

// recordingStore is a MemoryStore that counts the calls it gets,
// remembers what every id it was ever handed holds now, and can tear
// one write: half the records land, then the call fails.
type recordingStore struct {
	*partitioner.MemoryStore

	mu     sync.Mutex
	writes int
	reads  int
	held   map[int]int // id → bytes it holds now
	landed int         // bytes the last WritePartition left behind
	handed int         // bytes every WritePartition was given, summed
	tear   bool        // fail the next WritePartition
}

var errTorn = errors.New("injected write failure")

func newRecordingStore() *recordingStore {
	return &recordingStore{MemoryStore: partitioner.NewMemoryStore(), held: make(map[int]int)}
}

func size(records [][]byte) int {
	n := 0
	for _, r := range records {
		n += len(r)
	}
	return n
}

func (r *recordingStore) WritePartition(id int, records [][]byte) error {
	r.mu.Lock()
	r.writes++
	r.handed += size(records)
	tear := r.tear
	r.tear = false
	r.mu.Unlock()
	if tear {
		records = records[:len(records)/2]
	}
	err := r.MemoryStore.WritePartition(id, records)
	r.mu.Lock()
	r.held[id] = size(records)
	r.landed = size(records)
	r.mu.Unlock()
	if tear {
		return errTorn
	}
	return err
}

func (r *recordingStore) ReadPartition(id int) ([][]byte, error) {
	r.mu.Lock()
	r.reads++
	r.mu.Unlock()
	return r.MemoryStore.ReadPartition(id)
}

// calls is how many base-store calls were made so far.
func (r *recordingStore) calls() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.writes + r.reads
}

// live is how many bytes the ids of partition j hold (every id when
// j < 0); maxID is the highest id ever written.
func (r *recordingStore) live(j, p int) (total, maxID int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, n := range r.held {
		if j < 0 || id%p == j {
			total += n
		}
		maxID = max(maxID, id)
	}
	return total, maxID
}

// maxSegments is the segment bound of a partition of n records.
func maxSegments(n int) int {
	if n == 0 {
		return 0
	}
	return bits.Len(uint(n-1)) + 1 // ⌈log₂ n⌉ + 1
}

// assertSegments checks the logarithmic method's invariant on partition
// j's committed list: the counts add up to n, every segment holds more
// than twice its successor, and so there are at most ⌈log₂ n⌉+1.
func assertSegments(t *testing.T, s *EpochStore, j, n int) {
	t.Helper()
	segs := s.parts[j].segs
	total := 0
	for i, sg := range segs {
		total += sg.count
		if sg.count == 0 {
			t.Fatalf("partition %d segment %d is empty: %v", j, i, segs)
		}
		if i > 0 && segs[i-1].count <= 2*sg.count {
			t.Fatalf("partition %d segment %d is not more than twice its successor: %v", j, i-1, segs)
		}
	}
	if total != n {
		t.Fatalf("partition %d: segments %v hold %d records, want %d", j, segs, total, n)
	}
	if len(segs) > maxSegments(n) {
		t.Fatalf("partition %d: %d segments for %d records, want ≤ %d", j, len(segs), n, maxSegments(n))
	}
}

// stageContents stages next as partition j's new contents the way the
// loop does: common prefix with the committed contents, the store's
// rewrite offset, then the suffix.
func stageContents(txn *EpochTxn, j int, committed, next [][]byte) error {
	common := 0
	for common < len(committed) && common < len(next) && bytes.Equal(committed[common], next[common]) {
		common++
	}
	keep := txn.s.SuffixStart(j, common, len(next))
	return txn.WriteSuffix(j, keep, next[keep:])
}

// TestEpochStoreReclaimsSupersededEpochs is the epoch-leak regression,
// restated for segments: however many transactions commit (and abort in
// between), a partition's ids stay inside its first ⌈log₂ n⌉+2 slots —
// its segments and one free id — and the base holds at most two copies
// of it, instead of every epoch living forever.
func TestEpochStoreReclaimsSupersededEpochs(t *testing.T) {
	const p, epochs = 3, 200
	base := newRecordingStore()
	st, err := NewEpochStore(base, p)
	if err != nil {
		t.Fatal(err)
	}
	model := make([][][]byte, p)
	grown := func(e, j int) [][]byte {
		next := append([][]byte(nil), model[j]...)
		for k := 0; k <= (e+j)%5; k++ {
			next = append(next, []byte(fmt.Sprintf("e%d-p%d-%d", e, j, k)))
		}
		return next
	}
	for e := 0; e < epochs; e++ {
		abandoned := make([]int, p)
		if e%7 == 3 {
			// An abandoned stage in between tears only a free id.
			dead := st.Begin()
			if err := dead.WriteSuffix(e%p, 0, recs(0xdd, 0xdd)); err != nil {
				t.Fatal(err)
			}
			abandoned[e%p] = 2
		}
		txn := st.Begin()
		for j := 0; j < p; j++ {
			// Partition 0 sits out the odd transactions, so the partitions
			// are at different epochs.
			if j == 0 && e%2 == 1 {
				continue
			}
			next := grown(e, j)
			if e%11 == 5 {
				// Every so often the whole partition is staged again.
				err = txn.WriteSuffix(j, 0, next)
			} else {
				err = stageContents(txn, j, model[j], next)
			}
			if err != nil {
				t.Fatal(err)
			}
			model[j] = next
		}
		txn.Commit()
		for j := 0; j < p; j++ {
			assertPartition(t, st, j, model[j])
			assertSegments(t, st, j, len(model[j]))
			if live, _ := base.live(j, p); live > 2*size(model[j])+abandoned[j] {
				t.Fatalf("epoch %d: partition %d's ids hold %d bytes, its contents are %d", e, j, live, size(model[j]))
			}
		}
	}
	n := 0
	for j := range model {
		n = max(n, len(model[j]))
	}
	if _, maxID := base.live(-1, p); maxID >= p*(maxSegments(n)+1) {
		t.Errorf("%d transactions reached base id %d, want ids inside the first %d slots [0, %d)",
			epochs, maxID, maxSegments(n)+1, p*(maxSegments(n)+1))
	}
}

// TestEpochStoreMatchesModel drives the store with seeded sequences of
// transactions against a plain [][]byte model per partition (see
// checkEpochStoreModel); every seed must abandon and tear at least one
// transaction.
func TestEpochStoreMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(4)
		outcomes := checkEpochStoreModel(t, fmt.Sprintf("seed %d", seed), rng, p, 400)
		if outcomes[1] == 0 || outcomes[2] == 0 {
			t.Errorf("seed %d: %d committed, %d abandoned, %d torn transactions — the sequence exercised too little", seed, outcomes[0], outcomes[1], outcomes[2])
		}
	}
}

// FuzzEpochStoreMatchesModel runs checkEpochStoreModel's random
// sequences from fuzzed seeds on one to eight partitions, 100 steps
// each.
func FuzzEpochStoreMatchesModel(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(2), uint8(3))
	f.Add(int64(3), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, p uint8) {
		checkEpochStoreModel(t, fmt.Sprintf("seed %d", seed), rand.New(rand.NewSource(seed)), 1+int(p%8), 100)
	})
}

// checkEpochStoreModel drives a store of p partitions through steps
// transactions drawn from rng — appends, cuts with a new tail,
// truncations and whole rewrites, over one or several partitions,
// committed, abandoned or torn by an injected write failure — against
// a plain [][]byte model per partition. After every step every
// partition reads back equal to the model, its segment list keeps the
// logarithmic bound, and its base ids hold no more than the partition
// as of its last write, the copy before that write, and one staged
// suffix. It returns how many transactions committed, were abandoned
// and tore.
func checkEpochStoreModel(t *testing.T, name string, rng *rand.Rand, p, steps int) (outcomes [3]int) {
	t.Helper()
	base := newRecordingStore()
	st, err := NewEpochStore(base, p)
	if err != nil {
		t.Fatal(err)
	}
	model := make([][][]byte, p)
	placed := make([]bool, p)
	// Space bound per partition: contents right after its last write
	// committed, contents right before, the last uncommitted suffix.
	atWrite, beforeWrite, staged := make([]int, p), make([]int, p), make([]int, p)
	serial := 0
	fresh := func(n int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			serial++
			out[i] = []byte(fmt.Sprintf("%d:%s", serial, strings.Repeat("x", rng.Intn(20))))
		}
		return out
	}
	for step := 0; step < steps; step++ {
		at := fmt.Sprintf("%s step %d", name, step)
		touched := rng.Perm(p)[:1+rng.Intn(p)]
		next := make(map[int][][]byte, len(touched))
		for _, j := range touched {
			cur := model[j]
			switch op := rng.Intn(20); {
			case op < 12: // append a batch
				next[j] = append(cur[:len(cur):len(cur)], fresh(1+rng.Intn(30))...)
			case op < 15: // records left: a prefix survives, a new tail follows
				cut := rng.Intn(len(cur) + 1)
				next[j] = append(cur[:cut:cut], fresh(rng.Intn(40))...)
			case op < 18: // only the tail left
				next[j] = cur[:rng.Intn(len(cur)+1)]
			default: // everything changed
				next[j] = fresh(rng.Intn(200))
			}
		}
		const commit, abandon, tear = 0, 1, 2
		outcome := commit
		if r := rng.Intn(10); r == 0 {
			outcome = abandon
		} else if r == 1 {
			outcome = tear
		}
		tearAt, torn := rng.Intn(len(touched)), false
		txn := st.Begin()
		wrote := make(map[int]bool)
		for i, j := range touched {
			writes := base.writes
			base.tear = outcome == tear && i == tearAt
			err := stageContents(txn, j, model[j], next[j])
			if base.writes > writes {
				wrote[j] = true
				staged[j] = base.landed
			}
			if base.tear {
				// A truncation writes nothing, so nothing tore.
				base.tear = false
			} else if outcome == tear && i == tearAt {
				if !errors.Is(err, errTorn) {
					t.Fatalf("%s: torn write of partition %d returned %v", at, j, err)
				}
				torn = true
				break
			}
			if err != nil {
				t.Fatalf("%s: staging partition %d: %v", at, j, err)
			}
		}
		if outcome == tear && !torn {
			outcome = commit
		}
		outcomes[outcome]++
		if outcome == commit {
			txn.Commit()
			for _, j := range touched {
				if wrote[j] {
					beforeWrite[j], atWrite[j], staged[j] = size(model[j]), size(next[j]), 0
				}
				model[j] = next[j]
				placed[j] = true
			}
		}
		for j := 0; j < p; j++ {
			if !placed[j] {
				if _, err := st.ReadPartition(j); err == nil {
					t.Fatalf("%s: partition %d readable before its first commit", at, j)
				}
				continue
			}
			assertPartition(t, st, j, model[j])
			assertSegments(t, st, j, len(model[j]))
			if live, _ := base.live(j, p); live > atWrite[j]+beforeWrite[j]+staged[j] {
				t.Fatalf("%s: partition %d's ids hold %d bytes; its last write left %d, replaced %d, staged since %d",
					at, j, live, atWrite[j], beforeWrite[j], staged[j])
			}
		}
	}
	return outcomes
}

// twoSegments commits partition 1 of a 2-partition store as ten records
// and then three more, which is two segments: base ids 1 and 3.
func twoSegments(t *testing.T) (*recordingStore, *EpochStore, [][]byte) {
	t.Helper()
	base := newRecordingStore()
	st, err := NewEpochStore(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	all := recs(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
	if err := commitWhole(st, 1, all[:10]); err != nil {
		t.Fatal(err)
	}
	txn := st.Begin()
	if err := stageContents(txn, 1, all[:10], all); err != nil {
		t.Fatal(err)
	}
	txn.Commit()
	if got := st.parts[1].segs; len(got) != 2 || got[0] != (segment{0, 10}) || got[1] != (segment{1, 3}) {
		t.Fatalf("segments %v, want 10 records in slot 0 and 3 in slot 1", got)
	}
	assertPartition(t, st, 1, all)
	return base, st, all
}

// TestEpochStoreReadChecksSegmentCounts: a segment whose base id holds
// another record count than it was committed with fails the read, by
// partition and segment, instead of being served as the partition.
func TestEpochStoreReadChecksSegmentCounts(t *testing.T) {
	base, st, all := twoSegments(t)
	for name, torn := range map[string][][]byte{"short": all[10:12], "long": all[8:13], "empty": nil} {
		if err := base.MemoryStore.WritePartition(3, torn); err != nil {
			t.Fatal(err)
		}
		_, err := st.ReadPartition(1)
		if err == nil || !strings.Contains(err.Error(), "partition 1 segment 1") {
			t.Errorf("%s segment: read returned %v, want an error naming partition 1 segment 1", name, err)
		}
	}
	if err := base.MemoryStore.WritePartition(3, all[10:]); err != nil {
		t.Fatal(err)
	}
	assertPartition(t, st, 1, all)
}

// TestEpochStoreTruncationWritesNothing: a partition that only lost its
// tail, at a segment boundary, commits by dropping segments — no base
// call, staged or committed — and a suffix offset the store would not
// rewrite from is refused before anything is written.
func TestEpochStoreTruncationWritesNothing(t *testing.T) {
	base, st, all := twoSegments(t)
	calls := base.calls()
	txn := st.Begin()
	for _, keep := range []int{5, 12, 14} {
		if err := txn.WriteSuffix(1, keep, all[:1]); err == nil {
			t.Errorf("suffix from record %d, inside a segment, accepted", keep)
		}
	}
	// Ten kept records may be followed by at most four, or the merge
	// rule folds them into the rewrite.
	if err := txn.WriteSuffix(1, 10, all[:5]); err == nil {
		t.Error("5-record suffix behind a 10-record segment accepted")
	}
	if err := stageContents(txn, 1, all, all[:10]); err != nil {
		t.Fatal(err)
	}
	if records, size := txn.Shipped(); records != 0 || size != 0 {
		t.Errorf("truncation shipped %d records, %d bytes", records, size)
	}
	assertPartition(t, st, 1, all)
	calls += 2 // that read's two segments
	txn.Commit()
	if got := base.calls(); got != calls {
		t.Errorf("truncation made %d base-store calls", got-calls)
	}
	assertPartition(t, st, 1, all[:10])
	if st.parts[1].epoch != 2 {
		t.Errorf("epoch %d after three commits, want 2", st.parts[1].epoch)
	}
	// The dropped segment's id is the next stage's.
	if err := commitWhole(st, 1, all[:11]); err != nil {
		t.Fatal(err)
	}
	if got := st.parts[1].segs; len(got) != 1 || got[0] != (segment{1, 11}) {
		t.Errorf("segments %v after the rewrite, want 11 records in slot 1", got)
	}
}
