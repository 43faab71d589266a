// Package pivots defines the data model of the framework — trees,
// graphs and text documents — and the domain-specific conversion of
// each record into a *pivot set*: a flat set of items over a common
// universe (paper §III-C step 1).
//
// After pivot extraction every record, whatever its original type, is
// just a set of uint64 items, so sketching, stratification and
// partitioning run in a domain-independent way:
//
//   - Trees are stored as their parent array and label array (the
//     record AppendRecord writes; nodes are in topological order, so
//     the parent array alone fixes the shape). Tree.Pivots walks the
//     sibling order that array implies: for every node a and every
//     consecutive pair of its children (p, q), a is the least common
//     ancestor of p and q, which gives the pivot (a, p, q) over node
//     labels; parent–child edges are added so chains have pivots too.
//   - Graph vertices use their adjacency list (set of neighbors) as
//     the pivot set.
//   - Text documents use their set of word (term) identifiers.
//
// The package also provides compact binary codecs for each record type
// matching the storage layout of paper §IV: each record is a raw byte
// sequence whose first four bytes carry its length, so a whole
// partition can round-trip through the key-value store as one list.
package pivots

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"pareto/internal/parallel"
	"pareto/internal/sketch"
)

// Kind identifies the record domain of a corpus.
type Kind int

// Supported corpus kinds.
const (
	TreeData Kind = iota
	GraphData
	TextData
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case TreeData:
		return "tree"
	case GraphData:
		return "graph"
	case TextData:
		return "text"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Corpus is the domain-independent view of a dataset that the
// stratifier and partitioner operate on: every record exposes a pivot
// set and a size weight (its contribution to a partition's data count).
type Corpus interface {
	// Kind reports the record domain.
	Kind() Kind
	// Len returns the number of records.
	Len() int
	// AppendItems appends record i's pivots to dst, each at least once,
	// in an order fixed by the record (strictly ascending for graph and
	// text), and returns the extended buffer. Nothing is cached: a caller
	// that sketches many records reuses one buffer, dst[:0], for all.
	AppendItems(dst []sketch.Item, i int) []sketch.Item
	// Weight returns the size proxy of record i (nodes for trees,
	// out-degree+1 for graph vertices, tokens for documents).
	Weight(i int) int
	// AppendRecord serializes record i in the length-prefixed wire
	// layout and returns the extended buffer.
	AppendRecord(dst []byte, i int) []byte
	// RecordSize returns len(AppendRecord(nil, i)) without encoding, so
	// a caller can size one buffer for many records.
	RecordSize(i int) int
}

// ---------------------------------------------------------------------------
// Trees
// ---------------------------------------------------------------------------

// Tree is a rooted, labeled tree. Node 0 is the root. Parent[i] is the
// parent of node i (Parent[0] == -1). Label[i] is the content label of
// node i (e.g. an XML tag or grammar symbol identifier).
type Tree struct {
	Parent []int32
	Label  []uint32
}

// Validate checks structural invariants: node 0 is the root, every
// other node has a parent with a smaller index (nodes are stored in
// topological order), and labels align with parents.
func (t *Tree) Validate() error {
	n := len(t.Parent)
	if n == 0 {
		return errors.New("pivots: empty tree")
	}
	if len(t.Label) != n {
		return fmt.Errorf("pivots: tree has %d parents but %d labels", n, len(t.Label))
	}
	if t.Parent[0] != -1 {
		return fmt.Errorf("pivots: node 0 must be root, got parent %d", t.Parent[0])
	}
	for i := 1; i < n; i++ {
		if t.Parent[i] < 0 || int(t.Parent[i]) >= i {
			return fmt.Errorf("pivots: node %d has invalid parent %d (need 0..%d)", i, t.Parent[i], i-1)
		}
	}
	return nil
}

// NumNodes returns the node count.
func (t *Tree) NumNodes() int { return len(t.Parent) }

// Pivots extracts the LCA pivot set of the tree (paper §III-C step 1).
// For every internal node a and every consecutive pair of its children
// (c₁, c₂), node a is the least common ancestor of c₁ and c₂, yielding
// the pivot (label(a), label(c₁), label(c₂)). Parent–child edges are
// included as binary pivots so that path content is represented even in
// chains, where no branching LCA pivots exist. The result is a set of
// hashed items in ascending order, duplicates removed.
func (t *Tree) Pivots() []sketch.Item {
	set := t.appendPivots(nil)
	slices.Sort(set)
	return slices.Compact(set)
}

// appendPivots appends the items of t.Pivots() to dst in walk order,
// repeats kept. Nodes are in topological order with siblings ascending,
// so one pass over the parent array meets each node's children in
// sibling order: the previous child p of the same parent a is the
// consecutive sibling, and the pivot (a, p, v) hashes p's edge item
// Hash2(a, p), already in dst, with v. The pass appends at most 2n−1
// items; where each node's latest child's edge item sits (offset + 1,
// 0 = none) is kept in dst's spare capacity past them, so a caller that
// reuses dst allocates nothing per tree.
func (t *Tree) appendPivots(dst []sketch.Item) []sketch.Item {
	n := len(t.Parent)
	base := len(dst)
	dst = slices.Grow(dst, 3*n)
	last := dst[base+2*n : base+3*n]
	clear(last)
	for v := 1; v < n; v++ {
		a := t.Parent[v]
		lv := uint64(t.Label[v])
		if prev := last[a]; prev != 0 {
			dst = append(dst, sketch.Hash2(dst[prev-1], lv))
		}
		last[a] = uint64(len(dst) + 1)
		dst = append(dst, sketch.Hash2(uint64(t.Label[a]), lv))
	}
	if len(dst) == base {
		// Single-node tree: its only content is the root label.
		dst = append(dst, sketch.Hash2(uint64(t.Label[0]), ^uint64(0)))
	}
	return dst
}

// TreeCorpus is a collection of validated trees.
type TreeCorpus struct {
	Trees []Tree
}

// NewTreeCorpus validates every tree, fanning the work out across
// GOMAXPROCS workers.
func NewTreeCorpus(trees []Tree) (*TreeCorpus, error) {
	return NewTreeCorpusParallel(trees, 0)
}

// NewTreeCorpusParallel is NewTreeCorpus with an explicit worker bound
// (≤ 0 means GOMAXPROCS). Pivot sets are extracted when the records
// are sketched (AppendItems), not here.
func NewTreeCorpusParallel(trees []Tree, workers int) (*TreeCorpus, error) {
	err := validateAll(len(trees), workers, func(i int) error {
		if err := trees[i].Validate(); err != nil {
			return fmt.Errorf("tree %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &TreeCorpus{Trees: trees}, nil
}

// validateAll runs check on every record index, fanned out across
// workers (≤ 0 means GOMAXPROCS), and returns the error of the lowest
// failing index: the one the sequential loop would return, at every
// worker count.
func validateAll(n, workers int, check func(i int) error) error {
	_, err := parallel.ForErr(n, workers, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := check(i); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// Kind returns TreeData.
func (c *TreeCorpus) Kind() Kind { return TreeData }

// Len returns the number of trees.
func (c *TreeCorpus) Len() int { return len(c.Trees) }

// AppendItems appends tree i's LCA pivots (Tree.Pivots) in walk order,
// repeats kept: a sketch's minima need no sort.
func (c *TreeCorpus) AppendItems(dst []sketch.Item, i int) []sketch.Item {
	return c.Trees[i].appendPivots(dst)
}

// Weight returns the node count of tree i.
func (c *TreeCorpus) Weight(i int) int { return c.Trees[i].NumNodes() }

// AppendRecord serializes tree i as:
//
//	uint32 payloadLen | uint32 n | n × int32 parent | n × uint32 label
//
// all little-endian, the layout of paper §IV (length header first).
func (c *TreeCorpus) AppendRecord(dst []byte, i int) []byte {
	t := &c.Trees[i]
	n := len(t.Parent)
	payload := 4 + 8*n
	dst = binary.LittleEndian.AppendUint32(dst, uint32(payload))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	for _, p := range t.Parent {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p))
	}
	for _, l := range t.Label {
		dst = binary.LittleEndian.AppendUint32(dst, l)
	}
	return dst
}

// RecordSize implements Corpus.
func (c *TreeCorpus) RecordSize(i int) int { return 8 + 8*len(c.Trees[i].Parent) }

// DecodeTreeRecord parses one length-prefixed tree record from buf,
// returning the tree and the remaining buffer.
func DecodeTreeRecord(buf []byte) (Tree, []byte, error) {
	payload, rest, err := splitRecord(buf)
	if err != nil {
		return Tree{}, nil, err
	}
	if len(payload) < 4 {
		return Tree{}, nil, errors.New("pivots: tree record too short")
	}
	n := int(binary.LittleEndian.Uint32(payload))
	if len(payload) != 4+8*n {
		return Tree{}, nil, fmt.Errorf("pivots: tree record payload %d bytes, want %d", len(payload), 4+8*n)
	}
	t := Tree{Parent: make([]int32, n), Label: make([]uint32, n)}
	off := 4
	for i := 0; i < n; i++ {
		t.Parent[i] = int32(binary.LittleEndian.Uint32(payload[off:]))
		off += 4
	}
	for i := 0; i < n; i++ {
		t.Label[i] = binary.LittleEndian.Uint32(payload[off:])
		off += 4
	}
	return t, rest, nil
}

// ---------------------------------------------------------------------------
// Graphs
// ---------------------------------------------------------------------------

// Graph is a directed graph in adjacency-list form. Adj[v] lists the
// out-neighbors of vertex v in strictly increasing order (required by
// the webgraph compressor; generators guarantee it and Validate checks).
// Each vertex is one record of the corpus, as in the paper's webgraph
// workloads where vertices (and their adjacency payload) are the data
// items being placed.
type Graph struct {
	Adj [][]uint32
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.Adj) }

// NumEdges returns the total directed edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, a := range g.Adj {
		n += len(a)
	}
	return n
}

// Validate checks neighbor ordering and range.
func (g *Graph) Validate() error { return validateAll(len(g.Adj), 1, g.validateVertex) }

func (g *Graph) validateVertex(v int) error {
	nbrs := g.Adj[v]
	for i, u := range nbrs {
		if u >= uint32(len(g.Adj)) {
			return fmt.Errorf("pivots: vertex %d has out-of-range neighbor %d", v, u)
		}
		if i > 0 && nbrs[i-1] >= u {
			return fmt.Errorf("pivots: vertex %d adjacency not strictly increasing at %d", v, i)
		}
	}
	return nil
}

// GraphCorpus exposes a Graph as a corpus of per-vertex records.
type GraphCorpus struct {
	G *Graph
}

// NewGraphCorpus validates the graph, fanning the work out across
// GOMAXPROCS workers. A vertex's pivot set is its neighbor set (paper
// §III-C step 1).
func NewGraphCorpus(g *Graph) (*GraphCorpus, error) {
	return NewGraphCorpusParallel(g, 0)
}

// NewGraphCorpusParallel is NewGraphCorpus with an explicit worker
// bound (≤ 0 means GOMAXPROCS).
func NewGraphCorpusParallel(g *Graph, workers int) (*GraphCorpus, error) {
	if err := validateAll(len(g.Adj), workers, g.validateVertex); err != nil {
		return nil, err
	}
	return &GraphCorpus{G: g}, nil
}

// Kind returns GraphData.
func (c *GraphCorpus) Kind() Kind { return GraphData }

// Len returns the vertex count.
func (c *GraphCorpus) Len() int { return len(c.G.Adj) }

// AppendItems appends the neighbor set of vertex i.
func (c *GraphCorpus) AppendItems(dst []sketch.Item, i int) []sketch.Item {
	return appendUint32Items(dst, c.G.Adj[i])
}

// Weight returns out-degree + 1 (the vertex itself plus its edges —
// the bytes that must be stored and compressed for this record).
func (c *GraphCorpus) Weight(i int) int { return len(c.G.Adj[i]) + 1 }

// AppendRecord serializes vertex i as:
//
//	uint32 payloadLen | uint32 vertexID | uint32 deg | deg × uint32 neighbor
func (c *GraphCorpus) AppendRecord(dst []byte, i int) []byte {
	nbrs := c.G.Adj[i]
	payload := 8 + 4*len(nbrs)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(payload))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(i))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(nbrs)))
	for _, u := range nbrs {
		dst = binary.LittleEndian.AppendUint32(dst, u)
	}
	return dst
}

// RecordSize implements Corpus.
func (c *GraphCorpus) RecordSize(i int) int { return 12 + 4*len(c.G.Adj[i]) }

// DecodeGraphRecord parses one vertex record, returning the vertex ID,
// its adjacency list and the remaining buffer.
func DecodeGraphRecord(buf []byte) (uint32, []uint32, []byte, error) {
	payload, rest, err := splitRecord(buf)
	if err != nil {
		return 0, nil, nil, err
	}
	if len(payload) < 8 {
		return 0, nil, nil, errors.New("pivots: graph record too short")
	}
	v := binary.LittleEndian.Uint32(payload)
	deg := int(binary.LittleEndian.Uint32(payload[4:]))
	if len(payload) != 8+4*deg {
		return 0, nil, nil, fmt.Errorf("pivots: graph record payload %d bytes, want %d", len(payload), 8+4*deg)
	}
	nbrs := make([]uint32, deg)
	for i := 0; i < deg; i++ {
		nbrs[i] = binary.LittleEndian.Uint32(payload[8+4*i:])
	}
	return v, nbrs, rest, nil
}

// ---------------------------------------------------------------------------
// Text
// ---------------------------------------------------------------------------

// Doc is a text document represented as a bag of term IDs (a row of a
// document–term corpus such as RCV1). Terms holds the distinct term
// IDs present in the document, in strictly increasing order.
type Doc struct {
	Terms []uint32
}

// TextCorpus is a collection of documents over a shared vocabulary.
type TextCorpus struct {
	Docs      []Doc
	VocabSize int
}

// NewTextCorpus validates term ordering and range, fanning the work
// out across GOMAXPROCS workers.
func NewTextCorpus(docs []Doc, vocabSize int) (*TextCorpus, error) {
	return NewTextCorpusParallel(docs, vocabSize, 0)
}

// NewTextCorpusParallel is NewTextCorpus with an explicit worker bound
// (≤ 0 means GOMAXPROCS).
func NewTextCorpusParallel(docs []Doc, vocabSize, workers int) (*TextCorpus, error) {
	if vocabSize <= 0 {
		return nil, errors.New("pivots: vocabSize must be positive")
	}
	err := validateAll(len(docs), workers, func(d int) error {
		terms := docs[d].Terms
		for i, t := range terms {
			if int(t) >= vocabSize {
				return fmt.Errorf("pivots: doc %d term %d exceeds vocab %d", d, t, vocabSize)
			}
			if i > 0 && terms[i-1] >= t {
				return fmt.Errorf("pivots: doc %d terms not strictly increasing at %d", d, i)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &TextCorpus{Docs: docs, VocabSize: vocabSize}, nil
}

// Kind returns TextData.
func (c *TextCorpus) Kind() Kind { return TextData }

// Len returns the number of documents.
func (c *TextCorpus) Len() int { return len(c.Docs) }

// AppendItems appends the term set of document i.
func (c *TextCorpus) AppendItems(dst []sketch.Item, i int) []sketch.Item {
	return appendUint32Items(dst, c.Docs[i].Terms)
}

// appendUint32Items appends xs, already strictly increasing, as items.
func appendUint32Items(dst []sketch.Item, xs []uint32) []sketch.Item {
	for _, x := range xs {
		dst = append(dst, sketch.Item(x))
	}
	return dst
}

// Weight returns the distinct-term count of document i.
func (c *TextCorpus) Weight(i int) int { return len(c.Docs[i].Terms) }

// AppendRecord serializes document i as:
//
//	uint32 payloadLen | uint32 nTerms | n × uint32 term
func (c *TextCorpus) AppendRecord(dst []byte, i int) []byte {
	terms := c.Docs[i].Terms
	payload := 4 + 4*len(terms)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(payload))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(terms)))
	for _, t := range terms {
		dst = binary.LittleEndian.AppendUint32(dst, t)
	}
	return dst
}

// RecordSize implements Corpus.
func (c *TextCorpus) RecordSize(i int) int { return 8 + 4*len(c.Docs[i].Terms) }

// DecodeTextRecord parses one document record, returning the document
// and the remaining buffer.
func DecodeTextRecord(buf []byte) (Doc, []byte, error) {
	payload, rest, err := splitRecord(buf)
	if err != nil {
		return Doc{}, nil, err
	}
	if len(payload) < 4 {
		return Doc{}, nil, errors.New("pivots: text record too short")
	}
	n := int(binary.LittleEndian.Uint32(payload))
	if len(payload) != 4+4*n {
		return Doc{}, nil, fmt.Errorf("pivots: text record payload %d bytes, want %d", len(payload), 4+4*n)
	}
	terms := make([]uint32, n)
	for i := 0; i < n; i++ {
		terms[i] = binary.LittleEndian.Uint32(payload[4+4*i:])
	}
	return Doc{Terms: terms}, rest, nil
}

// DecodeTreeRecords parses a whole stream of tree records (the datagen
// / DiskStore file layout) into a corpus-ready slice. A sequential
// length-header scan first splits the buffer into per-record spans;
// the payload decode then fans out across GOMAXPROCS workers.
func DecodeTreeRecords(buf []byte) ([]Tree, error) {
	return DecodeTreeRecordsParallel(buf, 0)
}

// DecodeTreeRecordsParallel is DecodeTreeRecords with an explicit
// worker bound (≤ 0 means GOMAXPROCS). Records decode into
// index-addressed slots, so the result is identical at every worker
// count.
func DecodeTreeRecordsParallel(buf []byte, workers int) ([]Tree, error) {
	offs, err := scanRecordOffsets(buf)
	if err != nil {
		return nil, err
	}
	if len(offs) == 0 {
		return nil, nil
	}
	trees := make([]Tree, len(offs))
	if _, err := parallel.ForErr(len(offs), workers, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			t, _, err := DecodeTreeRecord(recordSpan(buf, offs, i))
			if err != nil {
				return fmt.Errorf("record %d: %w", i, err)
			}
			trees[i] = t
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return trees, nil
}

// DecodeGraphRecords parses a stream of vertex records into a Graph.
// Vertex IDs index the adjacency table, so the stream must hold a
// whole graph, as datagen writes it: every ID it names, endpoints
// included, is below its record count. That also bounds the table by
// the input — one corrupt record cannot ask for 2^32 rows.
func DecodeGraphRecords(buf []byte) (*Graph, error) {
	type rec struct {
		v    uint32
		nbrs []uint32
	}
	var recs []rec
	maxV := uint32(0)
	for len(buf) > 0 {
		v, nbrs, rest, err := DecodeGraphRecord(buf)
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", len(recs), err)
		}
		recs = append(recs, rec{v, nbrs})
		if v > maxV {
			maxV = v
		}
		for _, u := range nbrs {
			if u > maxV {
				maxV = u
			}
		}
		buf = rest
	}
	if len(recs) == 0 {
		return &Graph{}, nil
	}
	if int(maxV) >= len(recs) {
		return nil, fmt.Errorf("pivots: vertex %d named in a stream of %d records", maxV, len(recs))
	}
	adj := make([][]uint32, int(maxV)+1)
	for _, r := range recs {
		adj[r.v] = r.nbrs
	}
	return &Graph{Adj: adj}, nil
}

// DecodeTextRecords parses a stream of document records, returning the
// documents and the implied vocabulary size (max term + 1). A
// sequential length-header scan first splits the buffer into
// per-record spans; the payload decode then fans out across GOMAXPROCS
// workers.
func DecodeTextRecords(buf []byte) ([]Doc, int, error) {
	return DecodeTextRecordsParallel(buf, 0)
}

// DecodeTextRecordsParallel is DecodeTextRecords with an explicit
// worker bound (≤ 0 means GOMAXPROCS). Records decode into
// index-addressed slots and the vocabulary bound is a commutative
// maximum, so the result is identical at every worker count.
func DecodeTextRecordsParallel(buf []byte, workers int) ([]Doc, int, error) {
	offs, err := scanRecordOffsets(buf)
	if err != nil {
		return nil, 0, err
	}
	if len(offs) == 0 {
		return nil, 1, nil
	}
	docs := make([]Doc, len(offs))
	var maxTerm atomic.Uint32
	if _, err := parallel.ForErr(len(offs), workers, func(lo, hi int) error {
		m := uint32(0)
		for i := lo; i < hi; i++ {
			d, _, err := DecodeTextRecord(recordSpan(buf, offs, i))
			if err != nil {
				return fmt.Errorf("record %d: %w", i, err)
			}
			docs[i] = d
			for _, t := range d.Terms {
				if t > m {
					m = t
				}
			}
		}
		for {
			cur := maxTerm.Load()
			if m <= cur || maxTerm.CompareAndSwap(cur, m) {
				return nil
			}
		}
	}); err != nil {
		return nil, 0, err
	}
	return docs, int(maxTerm.Load()) + 1, nil
}

// splitRecord strips one uint32-length-prefixed record from buf.
func splitRecord(buf []byte) (payload, rest []byte, err error) {
	if len(buf) < 4 {
		return nil, nil, errors.New("pivots: record buffer shorter than length header")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if len(buf) < 4+n {
		return nil, nil, fmt.Errorf("pivots: record claims %d payload bytes, only %d available", n, len(buf)-4)
	}
	return buf[4 : 4+n], buf[4+n:], nil
}

// scanRecordOffsets walks the length headers of a record stream
// sequentially — the cheap O(records) pass — and returns the byte
// offset where each record starts, so the expensive payload decode can
// fan out across workers on independent spans. Header-level corruption
// is reported with the same record index the sequential decoder would
// have used.
func scanRecordOffsets(buf []byte) ([]int, error) {
	var offs []int
	off := 0
	for off < len(buf) {
		rest := buf[off:]
		if len(rest) < 4 {
			return nil, fmt.Errorf("record %d: %w", len(offs),
				errors.New("pivots: record buffer shorter than length header"))
		}
		n := int(binary.LittleEndian.Uint32(rest))
		if len(rest) < 4+n {
			return nil, fmt.Errorf("record %d: pivots: record claims %d payload bytes, only %d available",
				len(offs), n, len(rest)-4)
		}
		offs = append(offs, off)
		off += 4 + n
	}
	return offs, nil
}

// recordSpan returns the bytes of record i: from its offset to the
// next record's offset (or the end of the stream).
func recordSpan(buf []byte, offs []int, i int) []byte {
	end := len(buf)
	if i+1 < len(offs) {
		end = offs[i+1]
	}
	return buf[offs[i]:end]
}

// SplitRecords cuts a stream of uint32-length-prefixed records (the
// DiskStore file layout) into its records, each with its length header
// and sharing buf's memory. A short header or a length that overruns
// the stream is an error naming the record index.
func SplitRecords(buf []byte) ([][]byte, error) {
	offs, err := scanRecordOffsets(buf)
	if err != nil {
		return nil, err
	}
	recs := make([][]byte, len(offs))
	for i := range offs {
		recs[i] = recordSpan(buf, offs, i)
	}
	return recs, nil
}
