package frontier

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden.json from this tree's /frontier replies")

var elapsedRe = regexp.MustCompile(`"elapsed_ms": [^,\n}]+`)

// TestGoldenFrontierReplies pins the four /frontier replies the
// benchmark's frontier_serve workload requests (64 paper-shaped nodes,
// 1,000,000 units, Workers 1) byte for byte, apart from elapsed_ms.
// The sampled replies were generated at commit f736551, before the
// solver's two basis factorizations became one: sizes, objective
// vectors, per-point pivot counts and warm flags must not move when the
// solver's arithmetic is reorganized. The exact reply was regenerated
// when Exact became a dichotomic search: the same seven vertices, found
// at their tie weights. Regenerate with -update only for a change that
// is meant to alter a reply.
func TestGoldenFrontierReplies(t *testing.T) {
	svc := NewService(StaticSource{Nodes: PaperModels(64), Total: 1_000_000}, Config{Workers: 1})
	for _, g := range []struct{ file, query string }{
		{"alphas41", "alphas=41"},
		{"alphas11", "alphas=11"},
		{"alpha0995", "alpha=0.995"},
		{"exact", "exact=1"},
	} {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/frontier?"+g.query, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", g.query, rec.Code, rec.Body.String())
		}
		got := elapsedRe.ReplaceAll(rec.Body.Bytes(), []byte(`"elapsed_ms": 0`))
		path := filepath.Join("testdata", g.file+".golden.json")
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: reply differs from %s (%d vs %d bytes)", g.query, path, len(got), len(want))
		}
	}
}
