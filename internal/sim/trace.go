package sim

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// taskRecord is the JSON-lines schema for recorded workload traces,
// one task per line:
//
//	{"arrival": 1.5, "cost": 2e6, "fixed": 0.25, "node": 3}
//
// fixed defaults to 0 and node to unpinned when absent. Blank lines
// and lines starting with '#' are skipped, so traces can carry
// provenance comments.
type taskRecord struct {
	Arrival float64 `json:"arrival"`
	Cost    float64 `json:"cost"`
	Fixed   float64 `json:"fixed,omitempty"`
	Node    *int    `json:"node,omitempty"`
}

// ReadTasks parses a recorded trace from r. Arrivals need not be
// sorted — Run sorts stably by arrival — but each must be finite and
// nonnegative (validated at Run).
func ReadTasks(r io.Reader) ([]Task, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var tasks []Task
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var rec taskRecord
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, fmt.Errorf("sim: trace line %d: %w", line, err)
		}
		t := Task{Arrival: rec.Arrival, Cost: rec.Cost, Fixed: rec.Fixed, Pin: -1}
		if rec.Node != nil {
			t.Pin = *rec.Node
		}
		tasks = append(tasks, t)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sim: reading trace: %w", err)
	}
	return tasks, nil
}

// WriteDecisions records a decision trace to w, one JSON object per
// line, for counterfactual replay and head-to-head policy comparison.
func WriteDecisions(w io.Writer, decisions []Decision) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range decisions {
		if err := enc.Encode(&decisions[i]); err != nil {
			return fmt.Errorf("sim: writing decisions: %w", err)
		}
	}
	return bw.Flush()
}
