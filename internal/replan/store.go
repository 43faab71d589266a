package replan

import (
	"errors"
	"fmt"
	"sync"

	"pareto/internal/partitioner"
)

// EpochStore layers commit-or-abort cutover on any partitioner.Store,
// and ships a partition's change instead of the partition. A logical
// partition's committed state is an ordered list of segments; each
// segment is an ordinary base-store partition holding a known number of
// records, slot s of partition j at base id s·p + j, and the partition
// reads as its segments concatenated. A migration stages only the
// suffix of a partition that changed — one WritePartition into an id no
// committed segment occupies — and commits by swapping the in-memory
// segment list: the segments before the suffix stay where they are, the
// ones it replaces are superseded. Nothing committed is ever written
// to, so a write failure (dead worker, partitioned network) tears at
// most a free id: every partition stays readable at its previous
// contents, with no partial cutover, and the next stage rewrites the
// torn id from scratch (WritePartition replaces).
//
// Which suffix is fixed by the logarithmic method (SuffixStart): the
// rewrite starts at a segment boundary inside the unchanged prefix and
// is pulled back over every tail segment at most twice the size of what
// is written after it. So every committed segment holds more than twice
// its successor — a partition of n records has at most ⌈log₂ n⌉+1 of
// them — and each time a record is shipped again its segment has grown
// by half, which is O(log appends) shipments of any record.
//
// Superseded ids go on the partition's free list. The next stage writes
// into the first of them and its commit clears the rest, so the base
// holds a partition's committed records, at most what the commits since
// its last write superseded (no more than one earlier copy), and one
// staged suffix. The price of reclaiming is that a read is only stable
// across one later transaction: records returned at epoch e may alias
// storage the stage of epoch e+2 overwrites. One control loop drives
// the store, so reads and stages do not overlap.
//
// The segment lists live in memory: the store's crash-consistency is
// that of its base (a restarted process re-places from the plan), but a
// failed migration within a live process can never tear the data plane.
type EpochStore struct {
	base partitioner.Store
	p    int

	mu    sync.Mutex
	parts []partState
}

// segment is one committed run of a partition's records.
type segment struct {
	slot  int // base id slot·p + j
	count int // records the base holds under that id
}

// partState is one logical partition. segs is replaced, never edited,
// so a reader holding the old list still sees the old partition.
type partState struct {
	epoch int       // commits so far - 1; -1 = never placed
	segs  []segment // committed segments in record order
	free  []int     // slots that may hold stale records: superseded or torn
}

// NewEpochStore wraps base with segmented commit-or-abort cutover over
// p logical partitions.
func NewEpochStore(base partitioner.Store, p int) (*EpochStore, error) {
	if base == nil {
		return nil, errors.New("replan: nil base store")
	}
	if p <= 0 {
		return nil, fmt.Errorf("replan: epoch store needs p ≥ 1, got %d", p)
	}
	parts := make([]partState, p)
	for j := range parts {
		parts[j].epoch = -1
	}
	return &EpochStore{base: base, p: p, parts: parts}, nil
}

func (s *EpochStore) checkPart(j int) error {
	if j < 0 || j >= s.p {
		return fmt.Errorf("replan: partition %d out of [0,%d)", j, s.p)
	}
	return nil
}

// id returns the base id of partition j's slot.
func (s *EpochStore) id(slot, j int) int { return slot*s.p + j }

// ReadPartition serves partition j as committed: its segments read from
// the base and concatenated. A segment that does not hold the record
// count it was committed with is an error, never a short partition.
func (s *EpochStore) ReadPartition(j int) ([][]byte, error) {
	if err := s.checkPart(j); err != nil {
		return nil, err
	}
	s.mu.Lock()
	epoch, segs := s.parts[j].epoch, s.parts[j].segs
	s.mu.Unlock()
	if epoch < 0 {
		return nil, fmt.Errorf("replan: partition %d not placed yet", j)
	}
	total := 0
	for _, sg := range segs {
		total += sg.count
	}
	out := make([][]byte, 0, total)
	for i, sg := range segs {
		id := s.id(sg.slot, j)
		recs, err := s.base.ReadPartition(id)
		if err != nil {
			return nil, fmt.Errorf("replan: partition %d segment %d (base id %d): %w", j, i, id, err)
		}
		if len(recs) != sg.count {
			return nil, fmt.Errorf("replan: partition %d segment %d (base id %d) holds %d records, committed with %d",
				j, i, id, len(recs), sg.count)
		}
		out = append(out, recs...)
	}
	return out, nil
}

// SuffixStart returns the record offset a stage of partition j has to
// rewrite from, given that the first common records of the new contents
// are the committed ones and the new contents hold total records. It is
// the last segment boundary inside the common prefix, pulled back over
// every tail segment at most twice the size of what is then written
// after it (the logarithmic method's merge rule; the factor is part of
// the algorithm, not a setting).
func (s *EpochStore) SuffixStart(j, common, total int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	keep, _ := suffixStart(s.parts[j].segs, common, total)
	return keep
}

// suffixStart is SuffixStart over a segment list; kept is how many
// segments lie before the returned offset.
func suffixStart(segs []segment, common, total int) (keep, kept int) {
	for kept < len(segs) && keep+segs[kept].count <= common {
		keep += segs[kept].count
		kept++
	}
	for kept > 0 && segs[kept-1].count <= 2*(total-keep) {
		kept--
		keep -= segs[kept].count
	}
	return keep, kept
}

// nextSlot is the slot the next stage writes: a stale one when there is
// one (the write's replace reclaims it), else the lowest slot no
// committed segment occupies.
func (ps *partState) nextSlot() int {
	if len(ps.free) > 0 {
		return ps.free[0]
	}
	for slot := 0; ; slot++ {
		used := false
		for _, sg := range ps.segs {
			used = used || sg.slot == slot
		}
		if !used {
			return slot
		}
	}
}

// WritePartition rewrites and commits one partition in a single step —
// the degenerate one-partition transaction, making EpochStore itself a
// partitioner.Store.
func (s *EpochStore) WritePartition(j int, records [][]byte) error {
	txn := s.Begin()
	if err := txn.Write(j, records); err != nil {
		return err
	}
	txn.Commit()
	return nil
}

// WriteGroup implements partitioner.WriteGrouper by delegating to the
// base store's grouping of the id the next stage would write, so
// concurrent migrations respect the base's pipelining constraints
// (e.g. KVStore partitions sharing a client). A base without write
// groups isolates every partition.
func (s *EpochStore) WriteGroup(j int) int {
	s.mu.Lock()
	id := s.id(s.parts[j].nextSlot(), j)
	s.mu.Unlock()
	if g, ok := s.base.(partitioner.WriteGrouper); ok {
		return g.WriteGroup(id)
	}
	return j
}

// Begin opens a migration transaction. Transactions are not concurrent
// with each other (one control loop drives the store), but a single
// transaction's Writes may run in parallel.
func (s *EpochStore) Begin() *EpochTxn {
	return &EpochTxn{s: s, staged: make(map[int]stage)}
}

// EpochTxn stages partition suffixes. Write and WriteSuffix may be
// called concurrently; Commit must be called from one goroutine after
// every write returned, and only if all of them succeeded. Abandoning a
// transaction without Commit aborts it — staged data is simply never
// pointed at, and the next transaction's stages overwrite it.
type EpochTxn struct {
	s *EpochStore

	mu      sync.Mutex
	staged  map[int]stage
	records int
	bytes   int
}

// stage is one partition's staged change: the committed segments it
// keeps and the segment that follows them (count 0: nothing follows,
// the partition only lost its tail).
type stage struct {
	kept int
	seg  segment
}

// Write stages partition j's new contents whole.
func (t *EpochTxn) Write(j int, records [][]byte) error {
	return t.WriteSuffix(j, 0, records)
}

// WriteSuffix stages partition j's new contents as its first keep
// committed records followed by suffix. keep has to be an offset
// SuffixStart returns for these contents (0 always is). The suffix goes
// to the base as one partition under a free id; the committed segments
// keep serving reads until Commit. An empty suffix stages a truncation
// and writes nothing.
func (t *EpochTxn) WriteSuffix(j, keep int, suffix [][]byte) error {
	s := t.s
	if err := s.checkPart(j); err != nil {
		return err
	}
	s.mu.Lock()
	ps := &s.parts[j]
	start, kept := suffixStart(ps.segs, keep, keep+len(suffix))
	if start != keep {
		s.mu.Unlock()
		return fmt.Errorf("replan: partition %d cannot be rewritten from record %d with %d records after it: the store rewrites from %d",
			j, keep, len(suffix), start)
	}
	st := stage{kept: kept}
	if len(suffix) > 0 {
		st.seg = segment{slot: ps.nextSlot(), count: len(suffix)}
		if len(ps.free) == 0 {
			// A fresh slot: stale from here on, until a commit points at it.
			ps.free = append(ps.free, st.seg.slot)
		}
	}
	s.mu.Unlock()
	size := 0
	if len(suffix) > 0 {
		if err := s.base.WritePartition(s.id(st.seg.slot, j), suffix); err != nil {
			return fmt.Errorf("replan: staging partition %d: %w", j, err)
		}
		for _, r := range suffix {
			size += len(r)
		}
	}
	t.mu.Lock()
	t.staged[j] = st
	t.records += len(suffix)
	t.bytes += size
	t.mu.Unlock()
	return nil
}

// Shipped returns how many records and bytes the transaction's writes
// handed to the base store so far.
func (t *EpochTxn) Shipped() (records, bytes int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.records, t.bytes
}

// Commit swaps every staged partition to its new segment list. It never
// fails: the swap is in-memory and atomic under the store lock. It then
// clears the stale ids of the partitions it wrote, all but the ones it
// just superseded (a read taken before this transaction may still alias
// those); a clear that fails leaves its id on the free list, where the
// next stage reuses it or the next commit clears it.
func (t *EpochTxn) Commit() {
	s := t.s
	type staleSlot struct{ j, slot int }
	var stale []staleSlot
	s.mu.Lock()
	for j := range s.parts {
		st, ok := t.staged[j]
		if !ok {
			continue
		}
		ps := &s.parts[j]
		segs := append(make([]segment, 0, st.kept+1), ps.segs[:st.kept]...)
		if st.seg.count > 0 {
			segs = append(segs, st.seg)
			ps.free = removeSlot(ps.free, st.seg.slot)
			for _, slot := range ps.free {
				stale = append(stale, staleSlot{j, slot})
			}
		}
		for _, sg := range ps.segs[st.kept:] {
			ps.free = append(ps.free, sg.slot)
		}
		ps.segs = segs
		ps.epoch++
	}
	s.mu.Unlock()
	for _, c := range stale {
		if err := s.base.WritePartition(s.id(c.slot, c.j), nil); err != nil {
			continue // still on the free list
		}
		s.mu.Lock()
		s.parts[c.j].free = removeSlot(s.parts[c.j].free, c.slot)
		s.mu.Unlock()
	}
}

// removeSlot deletes slot from a free list in place.
func removeSlot(free []int, slot int) []int {
	for i, f := range free {
		if f == slot {
			return append(free[:i], free[i+1:]...)
		}
	}
	return free
}
