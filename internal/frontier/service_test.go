package frontier

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pareto/internal/opt"
	"pareto/internal/sampling"
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
	if len(resp.Axes) != len(DefaultAxes()) {
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
	rec, resp := getFrontier(t, svc, "/frontier?exact=1&tol=0.0001&workers=2")
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
		"/frontier?tol=0",
		"/frontier?tol=1.5",
		"/frontier?workers=-1",
		"/frontier?exact=maybe",
		"/frontier?all=maybe",
	} {
		rec, _ := getFrontier(t, svc, url)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, rec.Code)
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
	} {
		if _, err := Sweep(tc.nodes, tc.total, Config{}); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: Sweep error %v, want ErrBadRequest", tc.name, err)
		}
		if _, err := Exact(tc.nodes, tc.total, Config{}); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: Exact error %v, want ErrBadRequest", tc.name, err)
		}
		if _, err := opt.Optimize(tc.nodes, tc.total, 1); err == nil {
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
	if _, err := Sweep(good, 1000, Config{Constraints: opt.Constraints{MinSize: -1}}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("negative MinSize: Sweep error %v, want ErrBadRequest", err)
	}
}

// TestServiceEncodeFailure: a reply that cannot be encoded (an axis
// evaluating to NaN) is a clean 500 with nothing of the JSON body
// written, and is not memoized.
func TestServiceEncodeFailure(t *testing.T) {
	nan := Axis{Name: "nan", Eval: func([]opt.NodeModel, *opt.Plan) float64 { return math.NaN() }}
	svc := NewService(StaticSource{Nodes: PaperModels(4), Total: 10_000}, Config{Axes: []Axis{MakespanAxis(), nan}})
	rec, _ := getFrontier(t, svc, "/frontier?alphas=5")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if body := rec.Body.String(); !strings.HasPrefix(body, "frontier: encode reply:") || strings.Contains(body, "{") {
		t.Errorf("body %q, want only the encode error", body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	if len(svc.memo.entries) != 0 {
		t.Error("a failed reply was memoized")
	}
}

func TestServiceDominatedToggle(t *testing.T) {
	reg := telemetry.NewRegistry()
	// The non-convex two-node profile from the sweep tests: α=0 is
	// dominated on (makespan, node-seconds).
	svc := NewService(StaticSource{Nodes: nonConvexNodes(), Total: 100_000}, Config{
		Axes:      []Axis{MakespanAxis(), NodeSecondsAxis()},
		Telemetry: reg,
	})
	_, def := getFrontier(t, svc, "/frontier?alpha=0,0.5,1")
	_, all := getFrontier(t, svc, "/frontier?alpha=0,0.5,1&all=1")
	if def == nil || all == nil {
		t.Fatal("request failed")
	}
	if def.Dominated == 0 {
		t.Fatal("expected a dominated sample on the non-convex profile")
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

func TestServiceSourceError(t *testing.T) {
	svc := NewService(errSource{}, Config{})
	rec, _ := getFrontier(t, svc, "/frontier")
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("source error: status %d", rec.Code)
	}
}

type errSource struct{}

func (errSource) FrontierModels() ([]opt.NodeModel, int, error) {
	return nil, 0, errors.New("profiling not finished")
}

// nonConvexNodes is the fast-and-dirty vs slower-and-green pair used
// by TestSweepNonConvexDominancePruning.
func nonConvexNodes() []opt.NodeModel {
	return []opt.NodeModel{
		{Time: sampling.LinearFit{Slope: 0.001}, DirtyRate: 400},
		{Time: sampling.LinearFit{Slope: 0.0011}, DirtyRate: 0},
	}
}
