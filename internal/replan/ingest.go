package replan

import (
	"fmt"

	"pareto/internal/kvstore"
	"pareto/internal/pivots"
	"pareto/internal/sketch"
)

// DefaultTailWindow is the per-RPC batch size a Tailer reads with when
// Window is unset.
const DefaultTailWindow = 512

// Tailer feeds a Loop from a kvstore list that producers RPUSH wire
// records onto — the live half of the ingest path. Each list element is
// one length-prefixed record in the corpus kind's wire format; the
// Tailer decodes it to the same pivot set and weight the corresponding
// corpus type would derive, and hands the raw bytes through so
// migrated partitions carry the exact wire form.
type Tailer struct {
	// Client is the kvstore connection to poll.
	Client *kvstore.Client
	// Key is the list holding the record stream.
	Key string
	// Kind selects the wire codec (must match the loop's corpus kind).
	Kind pivots.Kind
	// Window is the per-RPC batch size (0 means DefaultTailWindow).
	Window int64

	cursor int64
}

// Poll reads every record appended to the list since the last poll and
// ingests each into the loop. Returns how many records were ingested.
// On a decode or ingest error the cursor stops before the bad element,
// so a retry re-reads it; on a transport error already-ingested records
// keep their cursor advance.
func (t *Tailer) Poll(l *Loop) (int, error) {
	if t.Client == nil {
		return 0, fmt.Errorf("replan: tailer has no client")
	}
	if l.corpus.Kind() != t.Kind {
		return 0, fmt.Errorf("replan: tailer decodes %v records but the loop's corpus is %v", t.Kind, l.corpus.Kind())
	}
	window := t.Window
	if window <= 0 {
		window = DefaultTailWindow
	}
	ingested := 0
	cur, err := t.Client.LRangeFrom(t.Key, t.cursor, window, func(batch [][]byte) error {
		for _, raw := range batch {
			items, weight, err := decodeRecord(t.Kind, raw)
			if err != nil {
				return err
			}
			if _, err := l.Ingest(items, weight, raw); err != nil {
				return err
			}
			ingested++
			t.cursor++
		}
		return nil
	})
	if err != nil {
		return ingested, err
	}
	t.cursor = cur
	return ingested, nil
}

// decodeRecord parses one wire record of the given kind into the pivot
// set and weight its corpus type would expose. The element must contain
// exactly one record, and what it holds must be what the corpus type
// accepts: a valid tree (Pivots walks its parent array), or neighbours
// and terms in strictly increasing order (the pivots.Corpus contract:
// an ascending, duplicate-free item set).
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
