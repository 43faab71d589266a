package telemetry

import (
	"bytes"
	"testing"
)

// FuzzReadSnapshot feeds ReadSnapshot arbitrary bytes, as kvcli feeds
// it a server's reply. It must never panic; a snapshot it accepts must
// answer Quantile on every histogram without panicking, and WriteJSON
// followed by ReadSnapshot must give back an equal snapshot. Equal is
// judged on the encoding: an empty list and an absent one (nil) both
// write as absent, and no reader can tell them apart.
func FuzzReadSnapshot(f *testing.F) {
	r := NewRegistry()
	r.Counter(`cmds_total{cmd="get"}`).Add(3)
	r.Gauge("conns_active").Set(5)
	r.FloatGauge("energy_wh").Set(1.5)
	h := r.Histogram("lat_ns", []int64{10, 100})
	h.Observe(5)
	h.Observe(5000)
	r.Histogram("boundless", nil).Observe(7)
	root := r.StartSpan("plan")
	root.Child("scan").End()
	root.End()
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, seed := range []string{
		`{}`,
		`null`,
		`{"histograms":{"h":{"counts":[3],"count":3}}}`,
		`{"histograms":{"h":{"bounds":[10,20],"counts":[1,0,2],"count":3,"sum":40}}}`,
		`{"histograms":{"h":{"bounds":[10],"counts":[5,-3],"count":2}}}`,
		`{"histograms":{"h":{"bounds":[],"counts":[],"count":0}}}`,
		`{"spans":[{"name":"a","children":[]}],"spans_dropped":2}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, h := range s.Histograms {
			for _, q := range []float64{0, 0.5, 0.99, 1} {
				h.Quantile(q) // must not panic
			}
		}
		var out, again bytes.Buffer
		if err := s.WriteJSON(&out); err != nil {
			t.Fatalf("accepted snapshot does not encode: %v", err)
		}
		back, err := ReadSnapshot(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("written snapshot rejected: %v\n%s", err, out.String())
		}
		if err := back.WriteJSON(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), again.Bytes()) {
			t.Fatalf("round trip changed the snapshot:\nread    %s\nwritten %s", out.String(), again.String())
		}
	})
}
