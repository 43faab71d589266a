package frontier

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"pareto/internal/opt"
)

// benchNodes/benchAlphas pin the benchmark scale the EXPERIMENTS.md
// warm-vs-cold table reports: 64 profiled nodes, 41-sample α ladder.
const benchNodes = 64

func benchAlphas() []float64 { return denseAlphas() }

// BenchmarkFrontier compares warm-started sweep enumeration against
// the cold per-α solve path on the same inputs. warm64x41/serial is
// the headline number: one solver chain re-solving 41 objectives;
// cold64x41 rebuilds and re-solves the LP from scratch at every α.
func BenchmarkFrontier(b *testing.B) {
	nodes := PaperModels(benchNodes)
	total := 1_000_000
	alphas := benchAlphas()

	b.Run("warm64x41/serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Sweep(nodes, total, Config{Alphas: alphas, Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm64x41/parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Sweep(nodes, total, Config{Alphas: alphas}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold64x41", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := coldFrontier(nodes, total, alphas); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Exact(nodes, total, Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFrontierService times one /frontier?alphas=41 request
// against the Service in-process (httptest recorder, no socket) at the
// BenchmarkFrontier scale. hit is the reply memo's path: key, lookup,
// one Write. miss moves the source's total by one unit per iteration,
// so every fingerprint is new and every request enumerates, encodes
// and stores — warm64x41/serial plus the JSON encode — which is the
// cost the end-to-end benchmark's timed loop no longer sees.
func BenchmarkFrontierService(b *testing.B) {
	for _, want := range []string{"hit", "miss"} {
		b.Run(want, func(b *testing.B) {
			src := StaticSource{Nodes: PaperModels(benchNodes), Total: 1_000_000}
			svc := NewService(src, Config{Workers: 1})
			req := httptest.NewRequest(http.MethodGet, "/frontier?alphas=41", nil)
			svc.ServeHTTP(httptest.NewRecorder(), req)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if want == "miss" {
					src.Total++
				}
				rec := httptest.NewRecorder()
				svc.ServeHTTP(rec, req)
				if got := rec.Header().Get("X-Frontier-Cache"); rec.Code != http.StatusOK || got != want {
					b.Fatalf("status %d, X-Frontier-Cache %q, want %s", rec.Code, got, want)
				}
			}
		})
	}
}

// TestWarmSweepCostFloor enforces what the shared vertex factorization
// bought: a serial 64×41 warm sweep — one cold solve and 40 re-solves,
// most of which take no pivot — costs at most 3× one cold Solve of the
// same LP (≈ 2× as recorded in BENCH_planner.json; 4.5× when every
// re-solve refactorized its unchanged basis twice). It is a timing
// assertion, so it only runs when PARETO_FRONTIER_COST_CHECK=1 asks
// for it (the CI bench-smoke job does).
func TestWarmSweepCostFloor(t *testing.T) {
	if os.Getenv("PARETO_FRONTIER_COST_CHECK") == "" {
		t.Skip("set PARETO_FRONTIER_COST_CHECK=1 to enforce the warm-sweep cost floor")
	}
	const ceiling, rounds = 3.0, 20
	nodes := PaperModels(benchNodes)
	total := 1_000_000
	alphas := benchAlphas()
	prob, err := opt.SizingLP(nodes, total, alphas[0], opt.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	// Interleave the two sides and keep each one's best round, so a
	// noisy-neighbor episode cannot penalize one side only.
	sweep, cold := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if _, err := Sweep(nodes, total, Config{Alphas: alphas, Workers: 1}); err != nil {
			t.Fatal(err)
		}
		sweep = min(sweep, time.Since(t0))
		t0 = time.Now()
		if _, err := prob.NewSolver().Solve(); err != nil {
			t.Fatal(err)
		}
		cold = min(cold, time.Since(t0))
	}
	ratio := float64(sweep) / float64(cold)
	msg := fmt.Sprintf("warm 64×41 sweep %v, one cold solve %v: %.1f× (ceiling %.0f×)", sweep, cold, ratio, ceiling)
	t.Log(msg)
	if ratio > ceiling {
		t.Errorf("warm sweep over the cost ceiling: %s", msg)
	}
}
