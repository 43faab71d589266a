package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Snapshot is a serializable point-in-time view of a registry:
// counters, gauges (integer and float rendered together), histogram
// snapshots, and the completed root spans.
type Snapshot struct {
	UptimeSec    float64                      `json:"uptime_sec,omitempty"`
	Counters     map[string]int64             `json:"counters"`
	Gauges       map[string]float64           `json:"gauges"`
	Histograms   map[string]HistogramSnapshot `json:"histograms"`
	Spans        []SpanSnapshot               `json:"spans,omitempty"`
	SpansDropped int64                        `json:"spans_dropped,omitempty"`
}

// FindSpan returns the first span with the given name across every
// root span tree (depth-first), or nil.
func (s *Snapshot) FindSpan(name string) *SpanSnapshot {
	for i := range s.Spans {
		if found := s.Spans[i].Find(name); found != nil {
			return found
		}
	}
	return nil
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("telemetry: encoding snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot parses a snapshot written by WriteJSON.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("telemetry: decoding snapshot: %w", err)
	}
	if s.Counters == nil {
		s.Counters = map[string]int64{}
	}
	if s.Gauges == nil {
		s.Gauges = map[string]float64{}
	}
	if s.Histograms == nil {
		s.Histograms = map[string]HistogramSnapshot{}
	}
	return &s, nil
}

// splitName separates an embedded label set from a metric name:
// `x_total{cmd="get"}` → (`x_total`, `cmd="get"`). Names without
// labels return an empty label string.
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// joinLabels renders a label set with an extra label appended.
func joinLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return "{" + labels + "," + extra + "}"
}

// WriteProm writes the snapshot in the Prometheus text exposition
// format (v0.0.4): one TYPE line per metric family, histograms as
// cumulative `_bucket{le=...}` series plus `_sum`/`_count`. Output is
// sorted by name, so it is diffable across scrapes.
func (s *Snapshot) WriteProm(w io.Writer) error {
	typed := map[string]bool{} // families already TYPE-announced
	announce := func(base, kind string) string {
		if typed[base+kind] {
			return ""
		}
		typed[base+kind] = true
		return "# TYPE " + base + " " + kind + "\n"
	}
	var sb strings.Builder
	for _, name := range sortedKeys(s.Counters) {
		base, _ := splitName(name)
		sb.WriteString(announce(base, "counter"))
		sb.WriteString(name)
		sb.WriteByte(' ')
		sb.WriteString(strconv.FormatInt(s.Counters[name], 10))
		sb.WriteByte('\n')
	}
	for _, name := range sortedKeys(s.Gauges) {
		base, _ := splitName(name)
		sb.WriteString(announce(base, "gauge"))
		sb.WriteString(name)
		sb.WriteByte(' ')
		sb.WriteString(strconv.FormatFloat(s.Gauges[name], 'g', -1, 64))
		sb.WriteByte('\n')
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		base, labels := splitName(name)
		sb.WriteString(announce(base, "histogram"))
		cum := int64(0)
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(h.Bounds) {
				le = strconv.FormatInt(h.Bounds[i], 10)
			}
			sb.WriteString(base)
			sb.WriteString("_bucket")
			sb.WriteString(joinLabels(labels, `le="`+le+`"`))
			sb.WriteByte(' ')
			sb.WriteString(strconv.FormatInt(cum, 10))
			sb.WriteByte('\n')
		}
		suffix := ""
		if labels != "" {
			suffix = "{" + labels + "}"
		}
		fmt.Fprintf(&sb, "%s_sum%s %d\n%s_count%s %d\n", base, suffix, h.Sum, base, suffix, h.Count)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
