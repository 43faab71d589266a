package frontier

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzFrontierQuery sends GET /frontier with an arbitrary raw query to
// a service over four paper-shaped nodes. Every reply must be a 200
// whose body decodes as the reply JSON for those models, or a 400: a
// query the parser lets through must never make the enumeration fail
// (500) or panic. testdata/fuzz/FuzzFrontierQuery holds the edge cases,
// among them two tol= queries from when the service took a convergence
// tolerance for Exact's α bisection (NaN made it never converge). That
// parameter is gone, as is workers=, which some seeds still carry; the
// service ignores both like any unknown one.
func FuzzFrontierQuery(f *testing.F) {
	for _, q := range []string{
		"",
		"alphas=11",
		"alpha=0,0.5,1",
		"alpha=0.995&all=1",
		"exact=1&workers=2",
		"alphas=1",
		"alpha=2",
		"alpha=%2C%2C&workers=4096",
	} {
		f.Add(q)
	}
	const total = 1000
	f.Fuzz(func(t *testing.T, query string) {
		svc := NewService(StaticSource{Nodes: PaperModels(4), Total: total}, Config{})
		req := httptest.NewRequest(http.MethodGet, "/frontier", nil)
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusBadRequest:
		case http.StatusOK:
			var resp responseJSON
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%q: 200 with a body that does not decode: %v", query, err)
			}
			if resp.Nodes != 4 || resp.Total != total {
				t.Fatalf("%q: reply for %d nodes and %d units, want 4 and %d", query, resp.Nodes, resp.Total, total)
			}
		default:
			t.Fatalf("%q: status %d: %s", query, rec.Code, rec.Body.String())
		}
	})
}
