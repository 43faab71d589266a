// Reply memo. A Service's models never change, so a repeated
// /frontier question has the same answer, and the Service keeps the
// encoded reply bytes of its recent enumerations: a repeat costs a
// key, a map lookup and one Write. Keys are exact — every request
// parameter the bytes depend on — so nothing is ever invalidated:
// entries age out FIFO. Only the Service has a memo; Sweep and Exact
// always enumerate.
package frontier

import (
	"bytes"
	"math"
	"strconv"
	"sync"

	"pareto/internal/telemetry"
)

// The memo holds at most memoEntries replies and memoBytes of keys
// plus bodies, evicting oldest first. A reply over a quarter of the
// budget (a 100,000-α sweep) is served and not kept, so one huge
// request cannot flush every small one.
const (
	memoEntries = 64
	memoBytes   = 16 << 20
)

// replyMemo is a Service's bounded FIFO of encoded replies. Safe for
// concurrent use; stored bodies are never written to again.
type replyMemo struct {
	budget       int // memoBytes; tests lower it
	hits, misses *telemetry.Counter
	held         *telemetry.Gauge

	mu      sync.Mutex
	entries map[string][]byte
	order   []string // insertion order, for FIFO eviction
	bytes   int
}

// newReplyMemo creates an empty memo. reg, when non-nil, receives the
// frontier_cache_hits / frontier_cache_misses counters and the
// frontier_cache_bytes gauge (bytes held against the budget).
func newReplyMemo(reg *telemetry.Registry) *replyMemo {
	return &replyMemo{
		budget:  memoBytes,
		hits:    reg.Counter("frontier_cache_hits"),
		misses:  reg.Counter("frontier_cache_misses"),
		held:    reg.Gauge("frontier_cache_bytes"),
		entries: make(map[string][]byte),
	}
}

// get returns the reply stored under key, counting a hit or a miss.
func (m *replyMemo) get(key string) ([]byte, bool) {
	m.mu.Lock()
	body, ok := m.entries[key]
	m.mu.Unlock()
	if ok {
		m.hits.Inc()
	} else {
		m.misses.Inc()
	}
	return body, ok
}

// put keeps a copy of body under key, evicting oldest entries until
// both bounds hold. The first reply stored under a key stays: of two
// concurrent misses the later one is served its own bytes, and every
// hit after them sees the earlier one's.
func (m *replyMemo) put(key string, body []byte) {
	size := len(key) + len(body)
	if size > m.budget/4 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[key]; ok {
		return
	}
	for len(m.order) >= memoEntries || m.bytes+size > m.budget {
		oldest := m.order[0]
		m.order = m.order[1:]
		m.bytes -= len(oldest) + len(m.entries[oldest])
		delete(m.entries, oldest)
	}
	m.entries[key] = bytes.Clone(body)
	m.order = append(m.order, key)
	m.bytes += size
	m.held.Set(int64(m.bytes))
}

// memoKey spells every per-request parameter the reply bytes depend
// on: mode, all= and the α list. Sweep's worker count, which decides
// its chain split, is the Service's own Config and the same for every
// request it answers.
func memoKey(exact, all bool, alphas []float64) string {
	buf := make([]byte, 0, 16+len(alphas)*17)
	buf = strconv.AppendBool(buf, exact)
	buf = append(buf, ';')
	buf = strconv.AppendBool(buf, all)
	for _, a := range alphas {
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, math.Float64bits(a), 16)
	}
	return string(buf)
}
