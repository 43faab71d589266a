package telemetry

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// Set stores the value. No-op on a nil receiver. Only tests set a
// float gauge outright; programs accumulate with Add.
func (g *FloatGauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Counter(`cmds_total{cmd="get"}`).Add(3)
	r.Counter(`cmds_total{cmd="set"}`).Add(2)
	r.Gauge("conns_active").Set(5)
	r.FloatGauge("energy_wh").Set(1.5)
	h := r.Histogram(`lat_ns{cmd="get"}`, []int64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE cmds_total counter",
		`cmds_total{cmd="get"} 3`,
		`cmds_total{cmd="set"} 2`,
		"# TYPE conns_active gauge",
		"conns_active 5",
		"energy_wh 1.5",
		"# TYPE lat_ns histogram",
		`lat_ns_bucket{cmd="get",le="10"} 1`,
		`lat_ns_bucket{cmd="get",le="100"} 2`,
		`lat_ns_bucket{cmd="get",le="+Inf"} 3`,
		`lat_ns_sum{cmd="get"} 5055`,
		`lat_ns_count{cmd="get"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per family even with two labeled series.
	if strings.Count(out, "# TYPE cmds_total counter") != 1 {
		t.Errorf("duplicate TYPE lines:\n%s", out)
	}
	// Deterministic: a second render must be identical.
	var buf2 bytes.Buffer
	if err := r.Snapshot().WriteProm(&buf2); err != nil {
		t.Fatal(err)
	}
	stripUptime := func(s string) string { return s } // uptime not in prom output
	if stripUptime(buf.String()) != stripUptime(buf2.String()) {
		t.Error("prom output not deterministic")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(7)
	r.Gauge("g").Set(-2)
	r.Histogram("h", []int64{10}).Observe(3)
	sp := r.StartSpan("root")
	sp.Child("leaf").End()
	sp.End()
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Counters["c"] != 7 || back.Gauges["g"] != -2 {
		t.Errorf("round trip: %+v", back)
	}
	if back.Histograms["h"].Count != 1 || back.Histograms["h"].Sum != 3 {
		t.Errorf("round trip histogram: %+v", back.Histograms["h"])
	}
	if back.FindSpan("leaf") == nil {
		t.Error("round trip lost the span tree")
	}
}

// TestReadSnapshotRejectsMalformedHistograms: a histogram off the wire
// must have the shape a Histogram snapshots to, or Quantile would read
// past its bounds.
func TestReadSnapshotRejectsMalformedHistograms(t *testing.T) {
	for _, tc := range []struct {
		name, hist string
		ok         bool
	}{
		{"empty", `{"count":0}`, true},
		{"empty with bounds", `{"bounds":[1,2],"count":0}`, true},
		{"boundless", `{"counts":[3],"count":3}`, true},
		{"well formed", `{"bounds":[10,20],"counts":[1,0,2],"count":3,"sum":40}`, true},
		{"counts without bounds", `{"counts":[1,2],"count":3}`, false},
		{"counts short of bounds", `{"bounds":[10,20],"counts":[3],"count":3}`, false},
		{"count without counts", `{"bounds":[10],"count":3}`, false},
		{"bounds descend", `{"bounds":[20,10],"counts":[1,1,1],"count":3}`, false},
		{"bounds repeat", `{"bounds":[10,10],"counts":[1,1,1],"count":3}`, false},
		{"count above sum", `{"bounds":[10],"counts":[1,1],"count":3}`, false},
		{"count below sum", `{"bounds":[10],"counts":[1,1],"count":1}`, false},
	} {
		s, err := ReadSnapshot(strings.NewReader(`{"histograms":{"h":` + tc.hist + `}}`))
		if tc.ok != (err == nil) {
			t.Errorf("%s: err = %v, want ok %v", tc.name, err, tc.ok)
			continue
		}
		if err == nil {
			s.Histograms["h"].Quantile(0.5) // must not panic
		}
	}
}

func TestSplitName(t *testing.T) {
	for _, tc := range []struct{ in, base, labels string }{
		{"plain", "plain", ""},
		{`x{a="b"}`, "x", `a="b"`},
		{`x{a="b",c="d"}`, "x", `a="b",c="d"`},
	} {
		base, labels := splitName(tc.in)
		if base != tc.base || labels != tc.labels {
			t.Errorf("splitName(%q) = (%q, %q), want (%q, %q)", tc.in, base, labels, tc.base, tc.labels)
		}
	}
}
