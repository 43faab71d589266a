package frontier

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"pareto/internal/opt"
	"pareto/internal/telemetry"
)

func testService(t *testing.T) (*Service, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	src := StaticSource{Nodes: PaperModels(8), Total: 100_000}
	return NewService(src, Config{Telemetry: reg}), reg
}

func getFrontier(t *testing.T, h http.Handler, url string) (*httptest.ResponseRecorder, *responseJSON) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return rec, nil
	}
	var resp responseJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("%s: bad JSON: %v\n%s", url, err, rec.Body.String())
	}
	return rec, &resp
}

func TestServiceSweepJSON(t *testing.T) {
	svc, _ := testService(t)
	rec, resp := getFrontier(t, svc, "/frontier?alphas=11")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type %q", ct)
	}
	if resp.Nodes != 8 || resp.Total != 100_000 || resp.Exact {
		t.Errorf("header fields: %+v", resp)
	}
	if len(resp.Points) == 0 {
		t.Fatal("no points")
	}
	if !reflect.DeepEqual(resp.Axes, objectiveNames) {
		t.Errorf("axes %v", resp.Axes)
	}
	for i, p := range resp.Points {
		if p.Dominated {
			t.Errorf("point %d: dominated point served without all=1", i)
		}
		if len(p.Objectives) != len(resp.Axes) {
			t.Errorf("point %d: %d objectives for %d axes", i, len(p.Objectives), len(resp.Axes))
		}
		if i > 0 && p.Alpha <= resp.Points[i-1].Alpha {
			t.Errorf("points not ascending in α at %d", i)
		}
	}
	if resp.Stats.Solves == 0 || resp.Stats.WarmSolves == 0 {
		t.Errorf("solve stats missing: %+v", resp.Stats)
	}
}

func TestServiceExactAndParams(t *testing.T) {
	svc, _ := testService(t)
	rec, resp := getFrontier(t, svc, "/frontier?exact=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if !resp.Exact {
		t.Error("exact flag not echoed")
	}
	if resp.Stats.Breakpoints == 0 {
		t.Error("exact enumeration reported zero breakpoints")
	}
	// Explicit α list.
	_, resp = getFrontier(t, svc, "/frontier?alpha=0,0.5,1")
	if resp == nil || len(resp.Points) == 0 || len(resp.Points) > 3 {
		t.Fatalf("explicit alpha list: %+v", resp)
	}
}

func TestServiceErrors(t *testing.T) {
	svc, _ := testService(t)
	req := httptest.NewRequest(http.MethodPost, "/frontier", nil)
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST: status %d", rec.Code)
	}
	for _, url := range []string{
		"/frontier?alphas=1",
		"/frontier?alphas=nope",
		"/frontier?alpha=2",
		"/frontier?alpha=x",
		"/frontier?exact=maybe",
		"/frontier?all=maybe",
		"/frontier?alpha=" + strings.Repeat("0,", maxAlphas) + "0", // one α past the alphas= cap
	} {
		rec, _ := getFrontier(t, svc, url)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%.80s: status %d, want 400", url, rec.Code)
		}
	}
}

// TestServiceRejectsBadModels: what opt.Optimize refuses, Sweep and
// Exact refuse too — as ErrBadRequest, which the service answers with
// 400 and does not memoize.
func TestServiceRejectsBadModels(t *testing.T) {
	good := PaperModels(4)
	with := func(mutate func(n *opt.NodeModel)) []opt.NodeModel {
		nodes := append([]opt.NodeModel(nil), good...)
		mutate(&nodes[2])
		return nodes
	}
	for _, tc := range []struct {
		name  string
		nodes []opt.NodeModel
		total int
	}{
		{"no nodes", nil, 1000},
		{"zero total", good, 0},
		{"negative slope", with(func(n *opt.NodeModel) { n.Time.Slope = -1e-6 }), 1000},
		{"NaN slope", with(func(n *opt.NodeModel) { n.Time.Slope = math.NaN() }), 1000},
		{"negative intercept", with(func(n *opt.NodeModel) { n.Time.Intercept = -0.1 }), 1000},
		{"NaN intercept", with(func(n *opt.NodeModel) { n.Time.Intercept = math.NaN() }), 1000},
		{"negative dirty rate", with(func(n *opt.NodeModel) { n.DirtyRate = -1 }), 1000},
		{"NaN dirty rate", with(func(n *opt.NodeModel) { n.DirtyRate = math.NaN() }), 1000},
		{"+Inf slope", with(func(n *opt.NodeModel) { n.Time.Slope = math.Inf(1) }), 1000},
		{"+Inf intercept", with(func(n *opt.NodeModel) { n.Time.Intercept = math.Inf(1) }), 1000},
		{"-Inf intercept", with(func(n *opt.NodeModel) { n.Time.Intercept = math.Inf(-1) }), 1000},
		{"+Inf dirty rate", with(func(n *opt.NodeModel) { n.DirtyRate = math.Inf(1) }), 1000},
	} {
		if _, err := Sweep(tc.nodes, tc.total, Config{}); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: Sweep error %v, want ErrBadRequest", tc.name, err)
		}
		if _, err := Exact(tc.nodes, tc.total, Config{}); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: Exact error %v, want ErrBadRequest", tc.name, err)
		}
		if _, err := opt.Optimize(tc.nodes, tc.total, 1, opt.Constraints{}); err == nil {
			t.Errorf("%s: opt.Optimize accepts it", tc.name)
		}
		svc := NewService(StaticSource{Nodes: tc.nodes, Total: tc.total}, Config{})
		for _, url := range []string{"/frontier?alphas=5", "/frontier?exact=1"} {
			if rec, _ := getFrontier(t, svc, url); rec.Code != http.StatusBadRequest {
				t.Errorf("%s: %s: status %d, want 400", tc.name, url, rec.Code)
			}
		}
		if len(svc.memo.entries) != 0 {
			t.Errorf("%s: an error reply was memoized", tc.name)
		}
	}
}

// TestServiceEncodeFailure: a reply that cannot be encoded (a NaN
// objective) is an error from the render step, with no bytes that
// could be served after a 200 or memoized.
func TestServiceEncodeFailure(t *testing.T) {
	res := &Result{Points: []Point{{
		Plan:       &opt.Plan{Sizes: []int{10, 0}},
		Objectives: []float64{1, math.NaN(), 1},
	}}}
	body, err := renderReply(responseJSON{Nodes: 2, Total: 10}, res, false)
	if err == nil || !strings.HasPrefix(err.Error(), "frontier: encode reply:") {
		t.Fatalf("render error %v, want an encode error", err)
	}
	if body != nil {
		t.Errorf("render returned %d bytes beside its error", len(body))
	}
}

// TestServiceDominatedToggle: the reply leaves dominated points out
// unless all=1 asks for them, and then flags them; the dominated count
// is reported either way.
func TestServiceDominatedToggle(t *testing.T) {
	point := func(alpha float64, obj ...float64) Point {
		return Point{Alpha: alpha, Plan: &opt.Plan{Sizes: []int{1, 1}}, Objectives: obj}
	}
	// The α=0.75 point is worse than the α=1 one on two axes and better
	// on none.
	res := &Result{Points: []Point{point(0, 10, 0, 10), point(0.5, 2, 4, 3), point(0.75, 3, 5, 4), point(1, 1, 5, 3)}}
	res.Stats.Dominated = markDominated(res.Points)
	render := func(all bool) responseJSON {
		body, err := renderReply(responseJSON{Nodes: 2, Total: 2}, res, all)
		if err != nil {
			t.Fatal(err)
		}
		var resp responseJSON
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	def, all := render(false), render(true)
	if def.Dominated != 1 || all.Dominated != 1 {
		t.Fatalf("dominated = %d / %d, want 1", def.Dominated, all.Dominated)
	}
	if len(all.Points) != len(def.Points)+def.Dominated {
		t.Errorf("all=1 returned %d points, filtered %d + dominated %d",
			len(all.Points), len(def.Points), def.Dominated)
	}
	flagged := 0
	for _, p := range all.Points {
		if p.Dominated {
			flagged++
		}
	}
	if flagged != all.Dominated {
		t.Errorf("flagged %d vs reported %d", flagged, all.Dominated)
	}
}

func TestServiceMountedOnTelemetryMux(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc := NewService(StaticSource{Nodes: PaperModels(4), Total: 10_000}, Config{Telemetry: reg})
	mux := reg.Handler()
	Mount(mux, svc)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/frontier?alphas=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/frontier via telemetry mux: %d", resp.StatusCode)
	}
	var out responseJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Points) == 0 {
		t.Fatal("no points over the wire")
	}
	// Telemetry from the request is visible on the same mux.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", mresp.StatusCode)
	}
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "frontier_sweeps_total") {
		t.Error("/metrics does not show the frontier sweep counter")
	}
}
