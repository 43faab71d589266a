package replan

import (
	"errors"
	"fmt"
	"sync"

	"pareto/internal/partitioner"
)

// EpochStore layers commit-or-abort cutover on any partitioner.Store.
// Each logical partition j owns two slots in the base store, ids j and
// p + j; epoch e of j lives in slot e mod 2, and reads always serve the
// last committed epoch. A migration stages every affected partition at
// its next epoch — in the slot the committed epoch does not occupy —
// and flips the committed pointers only after all staged writes
// succeeded. A write failure (dead worker, partitioned network) tears
// at most that other slot: every partition stays readable at its
// previous epoch, with no partial cutover, and the next stage rewrites
// the torn slot from scratch (WritePartition replaces). The slot a
// stage writes is the one epoch e-1 was superseded in, so the base
// holds two copies of a partition at most, however many epochs pass.
//
// The price of reclaiming is that a read is only stable across one
// later transaction: records returned for epoch e may alias storage
// the stage of epoch e+2 overwrites. One control loop drives the store,
// so reads and stages do not overlap.
//
// The epoch pointers live in memory: the store's crash-consistency is
// that of its base (a restarted process re-places from the plan), but a
// failed migration within a live process can never tear the data plane.
type EpochStore struct {
	base partitioner.Store
	p    int

	mu    sync.Mutex
	epoch []int // committed epoch per partition, -1 = never placed
}

// NewEpochStore wraps base with epoch-addressed cutover over p logical
// partitions.
func NewEpochStore(base partitioner.Store, p int) (*EpochStore, error) {
	if base == nil {
		return nil, errors.New("replan: nil base store")
	}
	if p <= 0 {
		return nil, fmt.Errorf("replan: epoch store needs p ≥ 1, got %d", p)
	}
	epoch := make([]int, p)
	for j := range epoch {
		epoch[j] = -1
	}
	return &EpochStore{base: base, p: p, epoch: epoch}, nil
}

// P returns the logical partition count.
func (s *EpochStore) P() int { return s.p }

// Epoch returns partition j's committed epoch (-1 before first commit).
func (s *EpochStore) Epoch(j int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch[j]
}

func (s *EpochStore) checkPart(j int) error {
	if j < 0 || j >= s.p {
		return fmt.Errorf("replan: partition %d out of [0,%d)", j, s.p)
	}
	return nil
}

// ReadPartition serves partition j at its committed epoch.
func (s *EpochStore) ReadPartition(j int) ([][]byte, error) {
	if err := s.checkPart(j); err != nil {
		return nil, err
	}
	s.mu.Lock()
	e := s.epoch[j]
	s.mu.Unlock()
	if e < 0 {
		return nil, fmt.Errorf("replan: partition %d not placed yet", j)
	}
	return s.base.ReadPartition(s.slot(e, j))
}

// slot returns the base id holding epoch e (≥ 0) of partition j.
func (s *EpochStore) slot(e, j int) int { return (e%2)*s.p + j }

// WritePartition stages and commits one partition in a single step —
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
	id := s.slot(s.epoch[j]+1, j)
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
	return &EpochTxn{s: s, staged: make(map[int]struct{})}
}

// EpochTxn stages partition writes at the next epoch. Write may be
// called concurrently; Commit must be called from one goroutine after
// every Write returned. Abandoning a transaction without Commit aborts
// it — staged data is simply never pointed at, and the next
// transaction's stages overwrite it.
type EpochTxn struct {
	s *EpochStore

	mu     sync.Mutex
	staged map[int]struct{}
}

// Write stages partition j's new contents at epoch[j]+1 in the base
// store, replacing what epoch[j]-1 left in that slot. The committed
// epoch keeps serving reads until Commit.
func (t *EpochTxn) Write(j int, records [][]byte) error {
	if err := t.s.checkPart(j); err != nil {
		return err
	}
	t.s.mu.Lock()
	id := t.s.slot(t.s.epoch[j]+1, j)
	t.s.mu.Unlock()
	if err := t.s.base.WritePartition(id, records); err != nil {
		return fmt.Errorf("replan: staging partition %d: %w", j, err)
	}
	t.mu.Lock()
	t.staged[j] = struct{}{}
	t.mu.Unlock()
	return nil
}

// Commit flips every staged partition to its new epoch. It never fails:
// the pointer flip is in-memory and atomic under the store lock.
func (t *EpochTxn) Commit() {
	t.s.mu.Lock()
	for j := range t.staged {
		t.s.epoch[j]++
	}
	t.s.mu.Unlock()
}
