// Package replan closes the loop between a live record stream and the
// partitioning plan: it watches per-stratum drift through the
// incremental frequency counters the stratifier maintains, redoes only
// the work the drift invalidated (dirty strata re-cluster, core's
// profile stage re-runs over the new membership, core's optimize stage
// solves the sizing LP afresh), and migrates data toward the new plan
// under a bounded per-cycle move budget with commit-or-abort cutover.
// The paper amortizes planning cost "over multiple runs on the full
// dataset" (§III); replan extends the amortization to datasets that
// keep growing between runs.
package replan

import (
	"errors"
	"fmt"

	"pareto/internal/pivots"
	"pareto/internal/sketch"
)

// DynamicCorpus is a pivots.Corpus that grows: a frozen base corpus
// plus wire records appended by the ingest path. Record indices are
// stable — base records keep their indices, appended records extend the
// index space — so stratum membership lists, assignments and partition
// contents stay valid as the corpus grows.
type DynamicCorpus struct {
	base    pivots.Corpus
	raws    [][]byte
	weights []int
}

// NewDynamicCorpus wraps a base corpus. The base must not change while
// the dynamic corpus is alive.
func NewDynamicCorpus(base pivots.Corpus) (*DynamicCorpus, error) {
	if base == nil || base.Len() == 0 {
		return nil, errors.New("replan: empty base corpus")
	}
	return &DynamicCorpus{base: base}, nil
}

// Append adds raw, one length-prefixed wire record of the corpus kind,
// and returns its index and its pivot set. The corpus owns raw
// afterwards: AppendRecord serves it verbatim, so migrated partitions
// carry the producer's exact bytes.
func (c *DynamicCorpus) Append(raw []byte) (int, []sketch.Item, error) {
	items, weight, err := decodeRecord(c.Kind(), raw)
	if err != nil {
		return 0, nil, err
	}
	if len(items) == 0 {
		return 0, nil, errors.New("replan: record with empty pivot set")
	}
	c.raws = append(c.raws, raw)
	c.weights = append(c.weights, weight)
	return c.base.Len() + len(c.raws) - 1, items, nil
}

// Kind implements pivots.Corpus.
func (c *DynamicCorpus) Kind() pivots.Kind { return c.base.Kind() }

// Len implements pivots.Corpus.
func (c *DynamicCorpus) Len() int { return c.base.Len() + len(c.raws) }

// AppendItems implements pivots.Corpus. An appended record's set is
// decoded again from its wire form, which Append has validated.
func (c *DynamicCorpus) AppendItems(dst []sketch.Item, i int) []sketch.Item {
	if b := c.base.Len(); i >= b {
		items, _, _ := decodeRecord(c.Kind(), c.raws[i-b])
		return append(dst, items...)
	}
	return c.base.AppendItems(dst, i)
}

// Weight implements pivots.Corpus.
func (c *DynamicCorpus) Weight(i int) int {
	if b := c.base.Len(); i >= b {
		return c.weights[i-b]
	}
	return c.base.Weight(i)
}

// AppendRecord implements pivots.Corpus.
func (c *DynamicCorpus) AppendRecord(dst []byte, i int) []byte {
	if b := c.base.Len(); i >= b {
		return append(dst, c.raws[i-b]...)
	}
	return c.base.AppendRecord(dst, i)
}

// RecordSize implements pivots.Corpus.
func (c *DynamicCorpus) RecordSize(i int) int {
	if b := c.base.Len(); i >= b {
		return len(c.raws[i-b])
	}
	return c.base.RecordSize(i)
}

// decodeRecord parses one wire record of the given kind into the pivot
// set and weight its corpus type would expose. The element must contain
// exactly one record, and what it holds must be what the corpus type
// accepts: a valid tree (Pivots walks its parent array), or neighbours
// and terms in strictly increasing order, the ascending, duplicate-free
// items a graph or text corpus appends. A tree's set is Pivots(), sorted
// and duplicate-free; its corpus appends the same set in walk order with
// repeats, which sketches identically.
func decodeRecord(kind pivots.Kind, raw []byte) ([]sketch.Item, int, error) {
	switch kind {
	case pivots.TreeData:
		tree, rest, err := pivots.DecodeTreeRecord(raw)
		if err != nil {
			return nil, 0, err
		}
		if len(rest) != 0 {
			return nil, 0, fmt.Errorf("replan: %d trailing bytes after tree record", len(rest))
		}
		if err := tree.Validate(); err != nil {
			return nil, 0, fmt.Errorf("replan: tree record: %w", err)
		}
		return tree.Pivots(), tree.NumNodes(), nil
	case pivots.GraphData:
		_, nbrs, rest, err := pivots.DecodeGraphRecord(raw)
		if err != nil {
			return nil, 0, err
		}
		if len(rest) != 0 {
			return nil, 0, fmt.Errorf("replan: %d trailing bytes after graph record", len(rest))
		}
		if err := increasing(nbrs); err != nil {
			return nil, 0, fmt.Errorf("replan: graph record neighbours: %w", err)
		}
		items := make([]sketch.Item, len(nbrs))
		for i, u := range nbrs {
			items[i] = sketch.Item(u)
		}
		return items, len(nbrs) + 1, nil
	case pivots.TextData:
		doc, rest, err := pivots.DecodeTextRecord(raw)
		if err != nil {
			return nil, 0, err
		}
		if len(rest) != 0 {
			return nil, 0, fmt.Errorf("replan: %d trailing bytes after text record", len(rest))
		}
		if err := increasing(doc.Terms); err != nil {
			return nil, 0, fmt.Errorf("replan: text record terms: %w", err)
		}
		items := make([]sketch.Item, len(doc.Terms))
		for i, term := range doc.Terms {
			items[i] = sketch.Item(term)
		}
		return items, len(doc.Terms), nil
	default:
		return nil, 0, fmt.Errorf("replan: unknown corpus kind %v", kind)
	}
}

// increasing reports the first place xs fails to increase strictly.
func increasing(xs []uint32) error {
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return fmt.Errorf("%d at position %d follows %d", xs[i], i, xs[i-1])
		}
	}
	return nil
}
