package partitioner

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"pareto/internal/kvstore"
	"pareto/internal/parallel"
	"pareto/internal/pivots"
)

// Store is where final partitions live (paper §III-E supports disk
// partitions and Redis-list partitions; an in-memory store rounds out
// testing).
type Store interface {
	// WritePartition stores the records of partition id, replacing any
	// previous content. It must not keep records or their bytes after
	// it returns: callers reuse them for the next partition.
	WritePartition(id int, records [][]byte) error
	// ReadPartition returns partition id's records in order.
	ReadPartition(id int) ([][]byte, error)
}

// MemoryStore keeps partitions in process memory. It is safe for
// concurrent use; only the map insertion itself is serialized, so
// parallel placement still overlaps the record copying.
type MemoryStore struct {
	mu    sync.Mutex
	parts map[int][][]byte
}

// NewMemoryStore creates an empty in-memory store.
func NewMemoryStore() *MemoryStore {
	return &MemoryStore{parts: make(map[int][][]byte)}
}

// WritePartition implements Store. It copies the records into one
// arena, each clipped to its length, so neither the caller's buffers nor
// an append to a read record can reach what is stored.
func (m *MemoryStore) WritePartition(id int, records [][]byte) error {
	total := 0
	for _, r := range records {
		total += len(r)
	}
	arena := make([]byte, 0, total)
	cp := make([][]byte, len(records))
	for i, r := range records {
		start := len(arena)
		arena = append(arena, r...)
		cp[i] = arena[start:len(arena):len(arena)]
	}
	m.mu.Lock()
	m.parts[id] = cp
	m.mu.Unlock()
	return nil
}

// WriteGroup implements WriteGrouper: every partition is its own
// group — the store is fully concurrent.
func (m *MemoryStore) WriteGroup(id int) int { return id }

// ReadPartition implements Store.
func (m *MemoryStore) ReadPartition(id int) ([][]byte, error) {
	m.mu.Lock()
	p, ok := m.parts[id]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("partitioner: partition %d not found", id)
	}
	return p, nil
}

// DiskStore writes each partition as one file of concatenated
// length-prefixed records (records already carry their 4-byte length
// headers, so the file is self-delimiting).
type DiskStore struct {
	dir string
}

// NewDiskStore uses dir (created if missing) for partition files.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("partitioner: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

func (d *DiskStore) path(id int) string {
	return filepath.Join(d.dir, fmt.Sprintf("partition-%04d.bin", id))
}

// WritePartition implements Store.
func (d *DiskStore) WritePartition(id int, records [][]byte) error {
	f, err := os.Create(d.path(id))
	if err != nil {
		return fmt.Errorf("partitioner: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, r := range records {
		_, _ = w.Write(r) // a bufio.Writer keeps its first error for Flush
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("partitioner: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("partitioner: %w", err)
	}
	return nil
}

// WriteGroup implements WriteGrouper: partitions live in independent
// files, so every partition is its own group.
func (d *DiskStore) WriteGroup(id int) int { return id }

// ReadPartition implements Store.
func (d *DiskStore) ReadPartition(id int) ([][]byte, error) {
	buf, err := os.ReadFile(d.path(id))
	if err != nil {
		return nil, fmt.Errorf("partitioner: %w", err)
	}
	recs, err := pivots.SplitRecords(buf)
	if err != nil {
		return nil, fmt.Errorf("partitioner: partition %d: %w", id, err)
	}
	return recs, nil
}

// maxBatchBytes caps the record payload packed into one variadic
// RPUSH during a partition write, so one command can never blow up the
// server's read arena.
const maxBatchBytes = 1 << 20

// readWindow bounds the LRANGE windows a partition is fetched in.
const readWindow = 4096

// KVStore places partitions as lists in key-value store instances —
// the paper's Redis deployment: one store per node, the framework
// controls which partition lands on which node, and transfers are
// batched through pipelining and chunked variadic RPUSH (many records
// per command, bounded by payload bytes).
type KVStore struct {
	// clients[j] connects to the store instance hosting partition j —
	// single-store *kvstore.Client or slot-routed *kvstore.ClusterClient.
	clients []kvstore.KV
	// width is the pipeline width for bulk writes.
	width int
	// keyPrefix namespaces partition keys.
	keyPrefix string
}

// NewKVStoreKV builds a store over per-partition clients: single-store
// *kvstore.Client or slot-routed *kvstore.ClusterClient. width is the
// pipeline width (≥1); the paper batches up to a preset width.
func NewKVStoreKV(clients []kvstore.KV, width int, keyPrefix string) (*KVStore, error) {
	if len(clients) == 0 {
		return nil, errors.New("partitioner: no kv clients")
	}
	if width < 1 {
		return nil, fmt.Errorf("partitioner: pipeline width %d", width)
	}
	if keyPrefix == "" {
		keyPrefix = "partition"
	}
	return &KVStore{clients: clients, width: width, keyPrefix: keyPrefix}, nil
}

func (k *KVStore) key(id int) string {
	return k.keyPrefix + ":" + strconv.Itoa(id)
}

func (k *KVStore) clientFor(id int) (kvstore.KV, error) {
	if id < 0 {
		return nil, fmt.Errorf("partitioner: partition id %d", id)
	}
	return k.clients[id%len(k.clients)], nil
}

// WritePartition implements Store: DEL, then pipelined chunked
// variadic RPUSHes — records ride many-per-command up to maxBatchBytes
// of payload, so a partition costs O(records/chunk) commands instead
// of O(records). List contents are element-for-element identical to a
// per-record push.
func (k *KVStore) WritePartition(id int, records [][]byte) error {
	c, err := k.clientFor(id)
	if err != nil {
		return err
	}
	if _, err := c.Del(k.key(id)); err != nil {
		return fmt.Errorf("partitioner: clearing partition %d: %w", id, err)
	}
	p, err := c.Pipe(k.key(id), k.width)
	if err != nil {
		return err
	}
	// One pass finds the largest batch, so args, reused across batches,
	// is sized for what one command carries; the second sends them.
	most := 0
	for lo, hi := 0, 0; lo < len(records); lo = hi {
		hi = batchEnd(records, lo)
		most = max(most, hi-lo)
	}
	args := make([][]byte, 1, 1+most)
	args[0] = []byte(k.key(id))
	for lo, hi := 0, 0; lo < len(records); lo = hi {
		hi = batchEnd(records, lo)
		if err := p.Send("RPUSH", append(args[:1], records[lo:hi]...)...); err != nil {
			return fmt.Errorf("partitioner: pushing to partition %d: %w", id, err)
		}
	}
	reps, err := p.Finish()
	if err != nil {
		return fmt.Errorf("partitioner: flushing partition %d: %w", id, err)
	}
	for _, rep := range reps {
		if err := rep.Err(); err != nil {
			return fmt.Errorf("partitioner: partition %d: %w", id, err)
		}
	}
	return nil
}

// batchEnd returns hi such that records[lo:hi] is the RPUSH batch
// starting at lo: as many records as fit in maxBatchBytes of payload,
// and at least one.
func batchEnd(records [][]byte, lo int) int {
	hi, payload := lo+1, len(records[lo])
	for hi < len(records) && payload+len(records[hi]) <= maxBatchBytes {
		payload += len(records[hi])
		hi++
	}
	return hi
}

// WriteGroup implements WriteGrouper: partitions sharing a client
// share a group. WritePartition runs a pipeline, and two pipelines
// interleaving on one connection would steal each other's replies —
// but writes through distinct clients are independent connections.
func (k *KVStore) WriteGroup(id int) int { return id % len(k.clients) }

// ReadPartition implements Store: bounded LRANGE windows stream the
// list without materializing one giant reply. The result is sized once
// from LLEN, and each window, valid only until its callback returns, is
// copied into one arena of its exact size.
func (k *KVStore) ReadPartition(id int) ([][]byte, error) {
	c, err := k.clientFor(id)
	if err != nil {
		return nil, err
	}
	n, err := c.LLen(k.key(id))
	if err != nil {
		return nil, fmt.Errorf("partitioner: reading partition %d: %w", id, err)
	}
	recs := make([][]byte, 0, n)
	err = c.LRangeChunked(k.key(id), readWindow, func(batch [][]byte) error {
		size := 0
		for _, rec := range batch {
			size += len(rec)
		}
		arena := make([]byte, 0, size)
		for _, rec := range batch {
			arena = append(arena, rec...)
			recs = append(recs, arena[len(arena)-len(rec):len(arena):len(arena)])
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("partitioner: reading partition %d: %w", id, err)
	}
	return recs, nil
}

// WriteGrouper is implemented by stores whose WritePartition calls may
// run concurrently across groups: writes to partitions with different
// WriteGroup values are independent, while writes within one group must
// stay sequential (e.g. KVStore pipelines sharing one connection).
// Stores not implementing it get strictly sequential writes from Place.
type WriteGrouper interface {
	Store
	WriteGroup(id int) int
}

// WriteGroups buckets partition ids (ascending) by their write groups
// (a store's WriteGroup): ids stay ascending inside a group and groups
// are ordered by their first id, so a fan-out over the groups that
// reports its lowest failing group fails deterministically.
func WriteGroups(group func(id int) int, ids []int) [][]int {
	index := make(map[int]int)
	var groups [][]int
	for _, j := range ids {
		g := group(j)
		gi, ok := index[g]
		if !ok {
			gi = len(groups)
			index[g] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], j)
	}
	return groups
}

// Place serializes every partition of the assignment from the corpus
// and writes it to the store. Equivalent to PlaceParallel with the
// default worker count.
func Place(c pivots.Corpus, a *Assignment, st Store) error {
	return PlaceParallel(c, a, st, 0)
}

// PlaceParallel is Place with an explicit worker bound (≤ 0 means
// GOMAXPROCS). Each partition is serialized just before it is written,
// into scratch its worker reuses: every worker's scratch is sized to
// the largest partition, so at most one buffer per worker is ever
// allocated, whatever order the partitions are handed out in. The
// serialized bytes are identical at any worker count. The store writes
// fan out per WriteGroup when the store declares one; otherwise they
// run sequentially, since an arbitrary Store's concurrency contract is
// unknown. On failure the error of the lowest-numbered failing group is
// returned, deterministically.
func PlaceParallel(c pivots.Corpus, a *Assignment, st Store, workers int) error {
	ids := make([]int, a.P())
	most, mostRecs := 0, 0
	for j, part := range a.Parts {
		ids[j] = j
		size := 0
		for _, r := range part {
			size += c.RecordSize(r)
		}
		most, mostRecs = max(most, size), max(mostRecs, len(part))
	}
	groups := [][]int{ids}
	if gr, ok := st.(WriteGrouper); ok {
		groups = WriteGroups(gr.WriteGroup, ids)
	} else {
		workers = 1
	}
	workers = parallel.Workers(len(groups), workers)
	// One slot per worker: a body takes a scratch for its chunk of
	// groups and hands it on when done.
	free := make(chan *recordScratch, workers)
	for range workers {
		free <- nil
	}
	_, err := parallel.ForErr(len(groups), workers, func(lo, hi int) error {
		s := <-free
		if s == nil {
			s = &recordScratch{arena: make([]byte, 0, most), recs: make([][]byte, 0, mostRecs)}
		}
		defer func() { free <- s }()
		for gi := lo; gi < hi; gi++ {
			for _, j := range groups[gi] {
				if err := st.WritePartition(j, s.encode(c, a.Parts[j])); err != nil {
					return fmt.Errorf("partitioner: placing partition %d: %w", j, err)
				}
			}
		}
		return nil
	})
	return err
}
