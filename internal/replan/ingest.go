package replan

import (
	"fmt"

	"pareto/internal/kvstore"
	"pareto/internal/pivots"
)

// DefaultTailWindow is the per-RPC batch size a Tailer reads with when
// its window is unset.
const DefaultTailWindow = 512

// Tailer feeds a Loop from a kvstore list that producers RPUSH wire
// records onto — the live half of the ingest path. Each list element is
// one length-prefixed record in the corpus kind's wire format, which
// the Tailer hands to Loop.Ingest as it is.
type Tailer struct {
	// Client is the kvstore connection to poll.
	Client *kvstore.Client
	// Key is the list holding the record stream.
	Key string
	// Kind selects the wire codec (must match the loop's corpus kind).
	Kind pivots.Kind
	// window is the per-RPC batch size (0 means DefaultTailWindow);
	// only the package's tests shrink it.
	window int64
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
	window := t.window
	if window <= 0 {
		window = DefaultTailWindow
	}
	ingested := 0
	cur, err := t.Client.LRangeFrom(t.Key, t.cursor, window, func(batch [][]byte) error {
		for _, raw := range batch {
			if _, err := l.Ingest(raw); err != nil {
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
