package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"pareto/internal/partitioner"
	"pareto/internal/pivots"
	"pareto/internal/sketch"
	"pareto/internal/strata"
)

// tinySizes are the test-only sizes: every workload, every layer, in a
// few seconds.
var tinySizes = sizes{
	Setups:    1,
	TreeScale: 0.03, TreeReps: 1,
	TextScale: 0.004, TextReps: 1,
	LZScale: 0.001, LZReps: 1,
	ReplanDocs: 4000, ReplanTopics: 8, ReplanOps: 30, ReplanTracedOps: 15,
	ReplanBatch: 40, ReplanBudget: 300,
	FrontierNodes: 8, FrontierTotal: 100_000, FrontierRequests: 48, FrontierTracedRequests: 24,
}

// smoke runs every workload once at tiny sizes, timed and traced, and
// caches the result per seed for the tests that share it.
var smokeCache = map[int64][]*workloadResult{}

func smoke(t *testing.T, seed int64) []*workloadResult {
	t.Helper()
	if res, ok := smokeCache[seed]; ok {
		return res
	}
	var out []*workloadResult
	for _, w := range workloads {
		res, spans, err := measure(w, seed, tinySizes, 10, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(spans) == 0 {
			t.Errorf("%s: the traced pass recorded no spans", w.name)
		}
		out = append(out, res)
	}
	smokeCache[seed] = out
	return out
}

// TestSmokeEveryMetricOnce runs all five workloads and asserts that
// every metric a workload defines is emitted exactly once with its
// unit, that no other is, and that the checks pass with fail_frac 0.
func TestSmokeEveryMetricOnce(t *testing.T) {
	for _, res := range smoke(t, 1) {
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", res.Name, res.Failed, res.Attempted, res.Failures)
		}
		seen := map[string]int{}
		units := map[string]string{}
		for _, m := range append(append([]metricValue(nil), res.EndToEnd...), res.PerLayer...) {
			seen[m.Name]++
			units[m.Name] = m.Unit
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s %s is %v", res.Name, m.Name, m.Value)
			}
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			want := 0
			if d.definedOn(res.Name) {
				want = 1
			}
			if seen[d.Name] != want {
				t.Errorf("%s: metric %s emitted %d times, want %d", res.Name, d.Name, seen[d.Name], want)
			}
			if want == 1 && units[d.Name] != d.Unit {
				t.Errorf("%s: metric %s has unit %q, want %q", res.Name, d.Name, units[d.Name], d.Unit)
			}
		}
		if m, _ := res.find("fail_frac"); m.Value != 0 {
			t.Errorf("%s: fail_frac = %v", res.Name, m.Value)
		}
		if m, _ := res.find("trace.unattributed_frac"); m.Value > 0.05 {
			t.Errorf("%s: trace.unattributed_frac = %v, want ≤ 0.05", res.Name, m.Value)
		}
	}
}

// TestTraceConfirmsWorkloadReasons checks what the trace must show for
// each workload's reason to hold.
func TestTraceConfirmsWorkloadReasons(t *testing.T) {
	for _, res := range smoke(t, 1) {
		value := func(name string) float64 { m, _ := res.find(name); return m.Value }
		wire := value("distrib.wire_ms") + value("kvstore.write_ms") + value("kvstore.read_ms")
		switch res.Name {
		case wTree, wFrontier:
			if wire != 0 {
				t.Errorf("%s: the store and the wire did %v ms of work, want none", res.Name, wire)
			}
		default:
			if wire <= 0 {
				t.Errorf("%s: the store and the wire did no work", res.Name)
			}
		}
		switch res.Name {
		case wReplan:
			if value("replan.cycles_full") != 2 || value("replan.moves_deferred") <= 0 || value("replan.cycles_incremental") < 20 {
				t.Errorf("replan: full %v, incremental %v, deferred %v", value("replan.cycles_full"), value("replan.cycles_incremental"), value("replan.moves_deferred"))
			}
		case wFrontier:
			if frac := value("frontier.warm_solves") / value("frontier.solves"); frac < 0.7 {
				t.Errorf("frontier: warm share of solves %v, want ≥ 0.7", frac)
			}
		case wLZ:
			if value("partitioner.moves") <= 0 || value("kvstore.aof_fsyncs") <= 0 || value("kvstore.write_amp") < 1 {
				t.Errorf("lz77: moves %v, fsyncs %v, write amplification %v", value("partitioner.moves"), value("kvstore.aof_fsyncs"), value("kvstore.write_amp"))
			}
		}
	}
}

// TestSeedPlumbing: another seed passes every check and changes the
// inputs; the same seed repeats every exact metric.
func TestSeedPlumbing(t *testing.T) {
	one, two := smoke(t, 1), smoke(t, 2)
	delete(smokeCache, 1)
	again := smoke(t, 1)
	for i, res := range one {
		if two[i].Failed != 0 {
			t.Errorf("%s at seed 2: %v", res.Name, two[i].Failures)
		}
		for _, m := range append(append([]metricValue(nil), res.EndToEnd...), res.PerLayer...) {
			if r, _ := again[i].find(m.Name); m.Exact && r.Value != m.Value {
				t.Errorf("%s %s: %v then %v at the same seed", res.Name, m.Name, m.Value, r.Value)
			}
		}
	}
	differs := func(w int, name string) {
		a, _ := one[w].find(name)
		b, _ := two[w].find(name)
		if a.Value == b.Value {
			t.Errorf("%s %s is %v at seeds 1 and 2", one[w].Name, name, a.Value)
		}
	}
	differs(0, "makespan_sim_s")
	differs(1, "kvstore.bytes_in")

	order := func(seed int64) []int {
		u, err := setupFrontier(&run{seed: seed, sz: tinySizes, seconds: 10, workers: 1, acct: &account{}})
		if err != nil {
			t.Fatal(err)
		}
		defer u.close()
		return u.(*frontierUnit).order
	}
	a, b := order(1), order(2)
	same := true
	for i := range a {
		same = same && a[i] == b[i]
	}
	if same {
		t.Error("frontier_serve sends its requests in the same order at seeds 1 and 2")
	}
}

// failingStore fails the n-th WritePartition.
type failingStore struct {
	partitioner.Store
	n, calls int
}

func (f *failingStore) WritePartition(id int, records [][]byte) error {
	f.calls++
	if f.calls == f.n {
		return errors.New("injected write failure")
	}
	return f.Store.WritePartition(id, records)
}

// tamperStore flips one byte of what it reads.
type tamperStore struct{ partitioner.Store }

func (s tamperStore) ReadPartition(id int) ([][]byte, error) {
	recs, err := s.Store.ReadPartition(id)
	if err == nil && id == 0 && len(recs) > 0 {
		recs[0] = append([]byte(nil), recs[0]...)
		recs[0][len(recs[0])-1] ^= 1
	}
	return recs, err
}

// TestRevisionPredictsTheTracker checks the two things the revision
// generator of replan_online assumes: that its own sketch family is the
// stratifier's, and that its nearest-centre rule is the drift
// tracker's.
func TestRevisionPredictsTheTracker(t *testing.T) {
	base, err := replanCorpus(rand.New(rand.NewSource(7)), 2000, 8)
	if err != nil {
		t.Fatal(err)
	}
	st, err := strata.Stratify(base, strata.StratifierConfig{
		SketchWidth: replanWidth,
		Cluster:     strata.Config{K: 8, L: 3, Seed: kmodesSeed},
		Seed:        stratSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	hasher, err := sketch.NewHasher(replanWidth, stratSeed)
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := strata.NewDriftTracker(st, strata.DriftConfig{Threshold: replanThreshold})
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < base.Len(); m += 7 {
		terms := topicTerms(m%8, m%replanWindow)
		terms[m%len(terms)] = alienTerm(1, m)
		items := make([]sketch.Item, len(terms))
		for k, term := range terms {
			items[k] = sketch.Item(term)
		}
		sk := hasher.Sketch(items)
		want, dist, err := tracker.Ingest(sk)
		if err != nil {
			t.Fatal(err)
		}
		if got := nearest(st.Centers, sk); got != want || mismatch(&st.Centers[got], sk) != dist {
			t.Fatalf("document %d: nearest = %d at %d, the tracker says %d at %d", m, got, mismatch(&st.Centers[got], sk), want, dist)
		}
	}
	doc := base.AppendRecord(nil, 3)
	d, _, err := pivots.DecodeTextRecord(doc)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]sketch.Item, len(d.Terms))
	for k, term := range d.Terms {
		items[k] = sketch.Item(term)
	}
	if got := hasher.Sketch(items); !reflect.DeepEqual(got, st.Sketches[3]) {
		t.Errorf("the generator's sketch of document 3 is %v, the stratifier's %v", got, st.Sketches[3])
	}
}

// TestFailuresAreCounted proves failures cannot be dropped silently: a
// store that fails one write gives fail_frac > 0 and an error that ends
// the run with a non-zero exit, and a tampered fetched byte fails the
// byte-equality check.
func TestFailuresAreCounted(t *testing.T) {
	tmp := t.TempDir()
	r := &run{seed: 1, sz: tinySizes, seconds: 10, workers: 1, acct: &account{}, tmp: tmp}
	u, err := setupTree(r)
	if err != nil {
		t.Fatal(err)
	}
	tree := u.(*treeUnit)
	tree.store.base = &failingStore{Store: tree.store.base, n: 2}
	if _, err := tree.rep(0); err == nil {
		t.Error("a failed WritePartition did not fail the repetition")
	}
	if r.acct.failed != 1 {
		t.Errorf("a failed WritePartition counted %d failures, want 1", r.acct.failed)
	}
	res := &workloadResult{Name: wTree, Attempted: r.acct.attempted, Failed: r.acct.failed}
	if line := resultLine(res, false); !strings.Contains(line, `"correct":false`) {
		t.Errorf("result line hides the failure: %s", line)
	}

	r = &run{seed: 1, sz: tinySizes, seconds: 10, workers: 1, acct: &account{}, tmp: tmp}
	if u, err = setupText(r); err != nil {
		t.Fatal(err)
	}
	defer u.close()
	text := u.(*textUnit)
	text.store.base = tamperStore{text.store.base}
	if _, err := text.rep(0); err != nil {
		t.Fatal(err)
	}
	if r.acct.failed == 0 || !strings.Contains(strings.Join(r.acct.failures, "\n"), "fetched.bytes") {
		t.Errorf("a tampered byte passed the byte-equality check: %v", r.acct.failures)
	}
}

// TestExitStatus drives the command itself: bad arguments and an
// unknown workload are refused, and -compare reports disagreement
// through its exit code.
func TestExitStatus(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := realMain([]string{"--workload", "nope"}, &out, &errOut); code == 0 {
		t.Error("an unknown workload exited 0")
	}
	if code := realMain([]string{"--trace", "2"}, &out, &errOut); code == 0 {
		t.Error("--trace 2 exited 0")
	}
	a := &resultsFile{Sizes: tinySizes, Seconds: 10, Workloads: []workloadResult{{
		Name:     wTree,
		EndToEnd: []metricValue{{Name: "e2e_s", Value: 2}, {Name: "fail_frac", Value: 0}},
	}}}
	b := &resultsFile{Sizes: tinySizes, Seconds: 10, Workloads: []workloadResult{{
		Name:     wTree,
		EndToEnd: []metricValue{{Name: "e2e_s", Value: 3}, {Name: "fail_frac", Value: 0}},
	}}}
	dir := t.TempDir()
	for name, rf := range map[string]*resultsFile{"a.json": a, "b.json": b} {
		if err := writeResults(dir+"/"+name, rf); err != nil {
			t.Fatal(err)
		}
	}
	out.Reset()
	if code := realMain([]string{"-compare", dir + "/a.json", dir + "/a.json"}, &out, &errOut); code != 0 || !strings.Contains(out.String(), "agree") {
		t.Errorf("comparing a file with itself: exit %d, output %q", code, out.String())
	}
	out.Reset()
	if code := realMain([]string{"-compare", dir + "/a.json", dir + "/b.json"}, &out, &errOut); code != 1 || !strings.Contains(out.String(), "DISAGREE") {
		t.Errorf("comparing 2 s with 3 s: exit %d, output %q", code, out.String())
	}
}

func TestCompareVerdict(t *testing.T) {
	def := func(name string) metricDef {
		for _, d := range endToEnd {
			if d.Name == name {
				return d
			}
		}
		t.Fatalf("no metric %s", name)
		return metricDef{}
	}
	e2e := def("e2e_s")
	cases := []struct {
		d     metricDef
		a, b  float64
		rel   float64
		agree bool
	}{
		{e2e, 2, 2, 0, true},
		{e2e, 2, 2 * (1 + e2e.Bound*0.9), e2e.Bound * 0.9, true},
		{e2e, 2, 2 * (1 + e2e.Bound*1.1), e2e.Bound * 1.1, false},
		{e2e, 2, 2 * (1 - e2e.Bound*1.1), -e2e.Bound * 1.1, false}, // an A/A check: much better disagrees too
		{def("fail_frac"), 0, 0, 0, true},
		{def("fail_frac"), 0, 0.001, 0.001, false},
		{metricDef{Name: "x_per_s", Better: "higher", Bound: 0.1}, 100, 80, 0.2, false},
	}
	for _, c := range cases {
		rel, agree := verdict(c.d, c.a, c.b)
		if math.Abs(rel-c.rel) > 1e-12 || agree != c.agree {
			t.Errorf("verdict(%s, %v, %v) = %v, %v; want %v, %v", c.d.Name, c.a, c.b, rel, agree, c.rel, c.agree)
		}
	}
}

func TestPercentile(t *testing.T) {
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(vs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("percentile of one sample = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v", got)
	}
	// p90 is reported only with at least ten samples beyond it.
	if got := samplesBeyond(150, 90); got != 15 {
		t.Errorf("samplesBeyond(150, 90) = %d", got)
	}
	if got := samplesBeyond(fullSizes.FrontierRequests, 90); got < 10 {
		t.Errorf("frontier_serve leaves %d samples beyond p90", got)
	}
	if got := samplesBeyond(fullSizes.ReplanOps, 90); got < 10 {
		t.Errorf("replan_online leaves %d samples beyond p90", got)
	}
}

// TestSpanSelfTimeOverlap: a parent's self time subtracts the union of
// its children's intervals, so two overlapping (parallel) children
// count their overlap once.
func TestSpanSelfTimeOverlap(t *testing.T) {
	ss := spanSet{
		{ID: 1, Name: "place", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "write", StartNs: 10, EndNs: 60},
		{ID: 3, Parent: 1, Name: "write", StartNs: 40, EndNs: 90},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "write", StartNs: 95, EndNs: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "inner", StartNs: 20, EndNs: 30},  // a grandchild does not count
	}
	if got := ss.selfNs(1); got != 100-(90-10)-(100-95) {
		t.Errorf("self time = %d, want 15", got)
	}
	if got := ss.unionMs("write"); got != float64((90-10)+(120-95))/1e6 {
		t.Errorf("union of the write spans = %v ms", got)
	}
	if got := unionNs([]interval{{5, 5}, {3, 1}}); got != 0 {
		t.Errorf("empty intervals cover %d ns", got)
	}

	tr := newTracer()
	root := tr.start(nil, "rep", 0)
	child := tr.start(root, "stage", 0)
	time.Sleep(time.Millisecond)
	child.end()
	root.end()
	spans := spanSet(tr.snapshot())
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].EndNs <= spans[1].StartNs {
		t.Errorf("recorded spans %+v", spans)
	}
	var off *tracer
	if sp := off.start(nil, "rep", 0); sp != nil {
		t.Error("a nil tracer recorded a span")
	}
}

// TestBenchmarkJSONMatchesTable keeps BENCHMARK.json and the metric
// table in this package in step.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, spec.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			bound := d.Bound
			if kind == "per_layer" {
				bound = 0
			}
			if got[i] != (metric{d.Name, d.Unit, d.Better, bound}) {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v here", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, contractEndToEnd())
	check("per_layer", spec.PerLayer, contractPerLayer())
}

// samplesBeyond is how many samples lie strictly above the nearest-rank
// p-th percentile's position.
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}
