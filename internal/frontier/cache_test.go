package frontier

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"pareto/internal/telemetry"
)

func memoService(t *testing.T) (*Service, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	src := StaticSource{Nodes: PaperModels(6), Total: 50_000}
	return NewService(src, Config{Telemetry: reg, Workers: 1}), reg
}

// wantMemo checks the hit/miss counters, the number of replies held,
// and that the bytes gauge is the sum of what is held.
func wantMemo(t *testing.T, svc *Service, reg *telemetry.Registry, hits, misses int64, entries int) {
	t.Helper()
	if got := reg.Counter("frontier_cache_hits").Value(); got != hits {
		t.Errorf("hits = %d, want %d", got, hits)
	}
	if got := reg.Counter("frontier_cache_misses").Value(); got != misses {
		t.Errorf("misses = %d, want %d", got, misses)
	}
	if got := len(svc.memo.entries); got != entries || len(svc.memo.order) != entries {
		t.Errorf("memo holds %d replies (%d in FIFO order), want %d", got, len(svc.memo.order), entries)
	}
	held := 0
	for k, body := range svc.memo.entries {
		held += len(k) + len(body)
	}
	if got := reg.Gauge("frontier_cache_bytes").Value(); got != int64(held) || svc.memo.bytes != held {
		t.Errorf("frontier_cache_bytes = %d, accounted %d, held %d", got, svc.memo.bytes, held)
	}
}

func TestCacheHitServesIdenticalBytes(t *testing.T) {
	svc, reg := memoService(t)
	rec1, _ := getFrontier(t, svc, "/frontier?alphas=9")
	rec2, _ := getFrontier(t, svc, "/frontier?alphas=9")
	if rec1.Code != http.StatusOK || rec2.Code != http.StatusOK {
		t.Fatalf("status %d / %d", rec1.Code, rec2.Code)
	}
	// Byte for byte, elapsed_ms included: stats describe the
	// enumeration that produced the points.
	if !bytes.Equal(rec1.Body.Bytes(), rec2.Body.Bytes()) {
		t.Error("memoized reply differs from the enumeration that seeded it")
	}
	if a, b := rec1.Header().Get("X-Frontier-Cache"), rec2.Header().Get("X-Frontier-Cache"); a != "miss" || b != "hit" {
		t.Errorf("X-Frontier-Cache = %q then %q, want miss then hit", a, b)
	}
	wantMemo(t, svc, reg, 1, 1, 1)
}

// TestCacheKeyedOnRequestParams flips, one at a time, everything a
// reply's bytes depend on and expects a miss each time, then a hit on
// the repeat.
func TestCacheKeyedOnRequestParams(t *testing.T) {
	svc, reg := memoService(t)
	getFrontier(t, svc, "/frontier?alphas=9")
	flips := []struct{ name, url string }{
		{"alpha count", "/frontier?alphas=11"},
		{"explicit alpha list", "/frontier?alpha=0,0.5,1"},
		{"exact", "/frontier?alphas=9&exact=1"},
		{"all", "/frontier?alphas=9&all=1"},
	}
	for i, f := range flips {
		for repeat, want := range []string{"miss", "hit"} {
			rec, _ := getFrontier(t, svc, f.url)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", f.name, rec.Code, rec.Body.String())
			}
			if got := rec.Header().Get("X-Frontier-Cache"); got != want {
				t.Errorf("%s, request %d: X-Frontier-Cache = %q, want %q", f.name, repeat+1, got, want)
			}
		}
		wantMemo(t, svc, reg, int64(i+1), int64(i+2), i+2)
	}
}

// TestServiceCopiesModels: the Service answers from the models it was
// built with, so mutating the slice passed to NewService afterwards
// changes neither a memoized reply nor a fresh enumeration.
func TestServiceCopiesModels(t *testing.T) {
	nodes := PaperModels(6)
	svc := NewService(StaticSource{Nodes: nodes, Total: 50_000}, Config{Workers: 1})
	ref := NewService(StaticSource{Nodes: PaperModels(6), Total: 50_000}, Config{Workers: 1})
	first, _ := getFrontier(t, svc, "/frontier?alphas=9")
	for i := range nodes {
		nodes[i].Time.Slope *= 3
		nodes[i].DirtyRate = 1
	}
	again, _ := getFrontier(t, svc, "/frontier?alphas=9")
	if again.Header().Get("X-Frontier-Cache") != "hit" || !bytes.Equal(again.Body.Bytes(), first.Body.Bytes()) {
		t.Errorf("repeat after the mutation: X-Frontier-Cache %q, bytes equal %v",
			again.Header().Get("X-Frontier-Cache"), bytes.Equal(again.Body.Bytes(), first.Body.Bytes()))
	}
	for _, url := range []string{"/frontier?alphas=11", "/frontier?exact=1&all=1"} {
		got, _ := getFrontier(t, svc, url)
		want, _ := getFrontier(t, ref, url)
		if got.Code != http.StatusOK || !bytes.Equal(elapsedRe.ReplaceAll(got.Body.Bytes(), nil), elapsedRe.ReplaceAll(want.Body.Bytes(), nil)) {
			t.Errorf("%s after the mutation: status %d, reply differs from the unmutated models'", url, got.Code)
		}
	}
}

func TestCacheFIFOEviction(t *testing.T) {
	// By count: the 65th distinct reply evicts the first.
	svc, reg := memoService(t)
	for n := 0; n <= memoEntries; n++ {
		getFrontier(t, svc, fmt.Sprintf("/frontier?alphas=%d", 2+n))
	}
	wantMemo(t, svc, reg, 0, memoEntries+1, memoEntries)
	getFrontier(t, svc, fmt.Sprintf("/frontier?alphas=%d", 2+memoEntries))
	wantMemo(t, svc, reg, 1, memoEntries+1, memoEntries)
	getFrontier(t, svc, "/frontier?alphas=2")
	wantMemo(t, svc, reg, 1, memoEntries+2, memoEntries)

	// By bytes: with a budget just short of five replies (elapsed_ms
	// makes a reply's length vary by a few bytes between runs), the
	// fifth evicts the first and the gauge is the other four.
	urls := []string{"/frontier?alphas=20", "/frontier?alphas=21", "/frontier?alphas=22", "/frontier?alphas=23", "/frontier?alphas=24"}
	svc, reg = memoService(t)
	for _, u := range urls {
		getFrontier(t, svc, u)
	}
	five := int(reg.Gauge("frontier_cache_bytes").Value())
	svc, reg = memoService(t)
	svc.memo.budget = five - 64
	for _, u := range urls {
		getFrontier(t, svc, u)
	}
	wantMemo(t, svc, reg, 0, 5, 4)
	getFrontier(t, svc, urls[4])
	wantMemo(t, svc, reg, 1, 5, 4)
	getFrontier(t, svc, urls[0])
	wantMemo(t, svc, reg, 1, 6, 4)
}

// TestCacheOversizeReplyNotRetained: a reply over a quarter of the byte
// budget is served and not kept, and evicts nothing.
func TestCacheOversizeReplyNotRetained(t *testing.T) {
	svc, reg := memoService(t)
	small, _ := getFrontier(t, svc, "/frontier?alpha=0.5")
	big, _ := getFrontier(t, svc, "/frontier?alphas=41&all=1")
	wantMemo(t, svc, reg, 0, 2, 2)
	bigSize := svc.memo.bytes - len(svc.memo.order[0]) - small.Body.Len()

	svc, reg = memoService(t)
	// ±16: elapsed_ms makes a reply's length vary by a few bytes.
	svc.memo.budget = 4 * (bigSize - 16)
	getFrontier(t, svc, "/frontier?alpha=0.5")
	for i := 0; i < 2; i++ {
		rec, _ := getFrontier(t, svc, "/frontier?alphas=41&all=1")
		if rec.Code != http.StatusOK || rec.Header().Get("X-Frontier-Cache") != "miss" {
			t.Fatalf("oversize request %d: status %d, X-Frontier-Cache %q", i+1, rec.Code, rec.Header().Get("X-Frontier-Cache"))
		}
		if !bytes.Equal(elapsedRe.ReplaceAll(rec.Body.Bytes(), nil), elapsedRe.ReplaceAll(big.Body.Bytes(), nil)) {
			t.Errorf("oversize request %d: reply differs from the retained one's", i+1)
		}
	}
	wantMemo(t, svc, reg, 0, 3, 1)
	svc.memo.budget = 4 * (bigSize + 16)
	getFrontier(t, svc, "/frontier?alphas=41&all=1")
	wantMemo(t, svc, reg, 0, 4, 2)
}

// TestCacheConcurrentCallers runs 8 callers over the benchmark's 6-URL
// mix (run it under -race). Started cold, concurrent misses of one URL
// may each enumerate, so replies agree apart from elapsed_ms; once a
// first reply has landed, every reply to that URL is that reply, byte
// for byte.
func TestCacheConcurrentCallers(t *testing.T) {
	const callers, rounds = 8, 5
	mix := []string{"alphas=41", "alphas=41", "alphas=41", "alphas=11", "alpha=0.995", "exact=1"}
	svc, reg := memoService(t)
	fetch := func(s *Service, q string) (*httptest.ResponseRecorder, []byte) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/frontier?"+q, nil))
		return rec, rec.Body.Bytes()
	}
	all := func(check func(q string, rec *httptest.ResponseRecorder, body []byte)) {
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < rounds*len(mix); i++ {
					q := mix[(c+i)%len(mix)]
					rec, body := fetch(svc, q)
					if rec.Code != http.StatusOK {
						t.Errorf("%s: status %d", q, rec.Code)
						continue
					}
					check(q, rec, body)
				}
			}(c)
		}
		wg.Wait()
	}

	serial := NewService(svc.src, svc.cfg)
	want := map[string][]byte{}
	for _, q := range mix {
		_, body := fetch(serial, q)
		want[q] = elapsedRe.ReplaceAll(body, nil)
	}
	all(func(q string, _ *httptest.ResponseRecorder, body []byte) {
		if !bytes.Equal(elapsedRe.ReplaceAll(body, nil), want[q]) {
			t.Errorf("%s: cold concurrent reply differs from a serial one", q)
		}
	})
	if len(svc.memo.entries) != 4 {
		t.Fatalf("memo holds %d replies for 4 distinct URLs", len(svc.memo.entries))
	}

	first := map[string][]byte{}
	for _, q := range mix {
		_, first[q] = fetch(svc, q)
	}
	misses := reg.Counter("frontier_cache_misses").Value()
	all(func(q string, rec *httptest.ResponseRecorder, body []byte) {
		if !bytes.Equal(body, first[q]) || rec.Header().Get("X-Frontier-Cache") != "hit" {
			t.Errorf("%s: reply is not the first reply's bytes (X-Frontier-Cache %q)", q, rec.Header().Get("X-Frontier-Cache"))
		}
	})
	if got := reg.Counter("frontier_cache_misses").Value(); got != misses {
		t.Errorf("%d misses once every URL had a reply", got-misses)
	}
}
