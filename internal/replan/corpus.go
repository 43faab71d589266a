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
	"encoding/binary"
	"errors"
	"fmt"

	"pareto/internal/pivots"
	"pareto/internal/sketch"
)

// DynamicCorpus is a pivots.Corpus that grows: a frozen base corpus
// plus records appended by the ingest path. Record indices are stable —
// base records keep their indices, appended records extend the index
// space — so stratum membership lists, assignments and partition
// contents stay valid as the corpus grows.
type DynamicCorpus struct {
	base    pivots.Corpus
	items   [][]sketch.Item
	weights []int
	raws    [][]byte
}

// NewDynamicCorpus wraps a base corpus. The base must not change while
// the dynamic corpus is alive.
func NewDynamicCorpus(base pivots.Corpus) (*DynamicCorpus, error) {
	if base == nil || base.Len() == 0 {
		return nil, errors.New("replan: empty base corpus")
	}
	return &DynamicCorpus{base: base}, nil
}

// Append adds one record and returns its index. items is the record's
// pivot set (owned by the corpus afterwards); weight is its size proxy;
// raw, when non-nil, is the record's length-prefixed wire form used
// verbatim by AppendRecord (the Tailer supplies the bytes it read off
// the ingest list). With raw nil, AppendRecord synthesizes an opaque
// item record — self-delimiting for any Store, but not decodable by the
// pivots codecs.
func (c *DynamicCorpus) Append(items []sketch.Item, weight int, raw []byte) (int, error) {
	if len(items) == 0 {
		return 0, errors.New("replan: record with empty pivot set")
	}
	if weight < 0 {
		return 0, fmt.Errorf("replan: negative record weight %d", weight)
	}
	c.items = append(c.items, items)
	c.weights = append(c.weights, weight)
	c.raws = append(c.raws, raw)
	return c.base.Len() + len(c.items) - 1, nil
}

// Kind implements pivots.Corpus.
func (c *DynamicCorpus) Kind() pivots.Kind { return c.base.Kind() }

// Len implements pivots.Corpus.
func (c *DynamicCorpus) Len() int { return c.base.Len() + len(c.items) }

// AppendItems implements pivots.Corpus.
func (c *DynamicCorpus) AppendItems(dst []sketch.Item, i int) []sketch.Item {
	if b := c.base.Len(); i >= b {
		return append(dst, c.items[i-b]...)
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
	b := c.base.Len()
	if i < b {
		return c.base.AppendRecord(dst, i)
	}
	if raw := c.raws[i-b]; raw != nil {
		return append(dst, raw...)
	}
	// Opaque fallback: uint32 payloadLen | nItems × uint64 item. Keeps
	// the partition format self-delimiting when a producer appended
	// pivot sets directly instead of wire records.
	items := c.items[i-b]
	dst = binary.LittleEndian.AppendUint32(dst, uint32(8*len(items)))
	for _, it := range items {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(it))
	}
	return dst
}

// RecordSize implements pivots.Corpus.
func (c *DynamicCorpus) RecordSize(i int) int {
	b := c.base.Len()
	if i < b {
		return c.base.RecordSize(i)
	}
	if raw := c.raws[i-b]; raw != nil {
		return len(raw)
	}
	return 4 + 8*len(c.items[i-b])
}
