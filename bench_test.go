package pareto

// This file regenerates every table and figure of the paper's
// evaluation (§V) as Go benchmarks — one per artifact, named after
// DESIGN.md's experiment index — plus the ablation benches for the
// design decisions DESIGN.md calls out. Each benchmark executes the
// full pipeline (stratify → profile → optimize → place → run) on the
// simulated heterogeneous cluster and reports the headline metrics
// (speedup and dirty-energy reduction versus the Stratified baseline)
// via b.ReportMetric, so `go test -bench=. -benchmem` prints the
// paper-shaped results alongside the usual ns/op.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pareto/internal/bench"
	"pareto/internal/cluster"
	"pareto/internal/core"
	"pareto/internal/datasets"
	"pareto/internal/energy"
	"pareto/internal/frontier"
	"pareto/internal/kvstore"
	"pareto/internal/opt"
	"pareto/internal/partitioner"
	"pareto/internal/pivots"
	"pareto/internal/sampling"
	"pareto/internal/sketch"
	"pareto/internal/strata"
)

// improvement is the relative reduction of b versus a, (a−b)/a, and 0
// when a is 0.
func improvement(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (a - b) / a
}

// reportStrategyMetrics derives the paper's headline numbers from a
// row triple (Stratified, Het-Aware, Het-Energy-Aware) at the largest
// partition count and attaches them to the benchmark.
func reportStrategyMetrics(b *testing.B, rows []bench.StrategyRow) {
	b.Helper()
	maxP := 0
	for _, r := range rows {
		if r.Partitions > maxP {
			maxP = r.Partitions
		}
	}
	var base, het, hea *bench.StrategyRow
	for i := range rows {
		r := &rows[i]
		if r.Partitions != maxP {
			continue
		}
		switch r.Strategy {
		case core.Stratified:
			base = r
		case core.HetAware:
			het = r
		case core.HetEnergyAware:
			hea = r
		}
	}
	if base == nil || het == nil || hea == nil {
		b.Fatal("missing strategy rows")
	}
	b.ReportMetric(100*improvement(base.TimeSec, het.TimeSec), "hetaware-time-%")
	b.ReportMetric(100*improvement(base.TimeSec, hea.TimeSec), "energyaware-time-%")
	b.ReportMetric(100*improvement(base.DirtyJ, hea.DirtyJ), "energyaware-dirty-%")
}

func BenchmarkTable1Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.Table1(bench.SmallScale())
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Text) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig2TreeMining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.Fig2(bench.SmallScale())
		if err != nil {
			b.Fatal(err)
		}
		reportStrategyMetrics(b, rep.Rows)
	}
}

func BenchmarkFig3TextMining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.Fig3(bench.SmallScale())
		if err != nil {
			b.Fatal(err)
		}
		reportStrategyMetrics(b, rep.Rows)
	}
}

func BenchmarkFig4GraphCompression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.Fig4(bench.SmallScale())
		if err != nil {
			b.Fatal(err)
		}
		reportStrategyMetrics(b, rep.Rows)
		// Quality: the heterogeneity-aware ratio must track the baseline.
		b.ReportMetric(rep.Rows[len(rep.Rows)-1].Quality["compression-ratio"], "ratio")
	}
}

func BenchmarkTable2LZ77UK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.Table2(bench.SmallScale())
		if err != nil {
			b.Fatal(err)
		}
		reportStrategyMetrics(b, rep.Rows)
		b.ReportMetric(rep.Rows[0].Quality["compression-ratio"], "ratio")
	}
}

func BenchmarkTable3LZ77Arabic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.Table3(bench.SmallScale())
		if err != nil {
			b.Fatal(err)
		}
		reportStrategyMetrics(b, rep.Rows)
		b.ReportMetric(rep.Rows[0].Quality["compression-ratio"], "ratio")
	}
}

func BenchmarkFig5ParetoFrontier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.Fig5(bench.SmallScale())
		if err != nil {
			b.Fatal(err)
		}
		// Report the frontier span of the first workload: max dirty
		// reduction attainable along the sweep.
		first := rep.Frontier
		if len(first) == 0 {
			b.Fatal("empty frontier")
		}
		hi, lo := first[0].DirtyJ, first[0].DirtyJ
		for _, r := range first {
			if r.Baseline {
				continue
			}
			if r.DirtyJ > hi {
				hi = r.DirtyJ
			}
			if r.DirtyJ < lo {
				lo = r.DirtyJ
			}
		}
		b.ReportMetric(100*improvement(hi, lo), "frontier-dirty-span-%")
	}
}

func BenchmarkFig6SupportSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.Fig6(bench.SmallScale())
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Frontier) == 0 {
			b.Fatal("empty frontier")
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5)
// ---------------------------------------------------------------------------

// BenchmarkAblationKModesL sweeps the composite center width L: larger
// L reduces the zero-match mismatch cost at modest extra compute.
func BenchmarkAblationKModesL(b *testing.B) {
	sketches := plantedSketchesForBench(800, 24, 8, 0.4)
	for _, l := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("L=%d", l), func(b *testing.B) {
			var cost int64
			for i := 0; i < b.N; i++ {
				res, err := strata.Cluster(sketches, strata.Config{K: 8, L: l, Seed: 7})
				if err != nil {
					b.Fatal(err)
				}
				cost = res.Cost
			}
			b.ReportMetric(float64(cost), "mismatch-cost")
		})
	}
}

func plantedSketchesForBench(n, width, k int, noise float64) []sketch.Sketch {
	rng := rand.New(rand.NewSource(3))
	protos := make([]sketch.Sketch, k)
	for c := range protos {
		p := make(sketch.Sketch, width)
		for a := range p {
			p[a] = uint64(c*1_000_000 + rng.Intn(1000))
		}
		protos[c] = p
	}
	out := make([]sketch.Sketch, n)
	for i := range out {
		s := append(sketch.Sketch(nil), protos[i%k]...)
		for a := range s {
			if rng.Float64() < noise {
				s[a] = rng.Uint64()
			}
		}
		out[i] = s
	}
	return out
}

// BenchmarkAblationPipelineWidth measures kvstore write throughput at
// increasing pipeline widths (§IV: batching "substantially improves
// response times").
func BenchmarkAblationPipelineWidth(b *testing.B) {
	srv := kvstore.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	val := make([]byte, 128)
	for _, width := range []int{1, 8, 64, 256} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			c, err := kvstore.Dial(addr, time.Second)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			p, err := c.Pipe("k", width)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(val)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Send("SET", []byte("k"), val); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := p.Finish(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAblationPlacementScheme contrasts representative and
// similar-together placement on the compression workload: similarity
// placement must win on compressed size (the reason §III-E offers
// both).
func BenchmarkAblationPlacementScheme(b *testing.B) {
	cfg := datasets.UKLike(0.0003)
	g, _, err := datasets.GenerateGraph(cfg)
	if err != nil {
		b.Fatal(err)
	}
	corpus, err := pivots.NewGraphCorpus(g)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := cluster.PaperCluster(8, energy.DefaultPanel(), 172, 48)
	if err != nil {
		b.Fatal(err)
	}
	for _, scheme := range []partitioner.Scheme{partitioner.Representative, partitioner.SimilarTogether} {
		b.Run(scheme.String(), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				w := &bench.GraphCompression{Graph: corpus}
				cfg := core.Config{Strategy: core.Stratified, Scheme: scheme}
				plan, err := core.BuildPlan(corpus, cl, w.Profile, cfg)
				if err != nil {
					b.Fatal(err)
				}
				_, quality, err := w.Run(cl, plan.Assign, 0)
				if err != nil {
					b.Fatal(err)
				}
				ratio = quality["compression-ratio"]
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}

// BenchmarkAblationExactFrontier compares the sampled α sweep against
// exact frontier vertex enumeration.
func BenchmarkAblationExactFrontier(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	nodes := make([]opt.NodeModel, 8)
	for i := range nodes {
		nodes[i] = opt.NodeModel{
			Time:      sampling.LinearFit{Slope: 0.0001 + rng.Float64()*0.001, Intercept: rng.Float64()},
			DirtyRate: rng.Float64() * 400,
		}
	}
	b.Run("sampled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := frontier.Sweep(nodes, 1_000_000, frontier.Config{Alphas: opt.DefaultAlphaSweep()})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(res.Points)), "points")
		}
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := frontier.Exact(nodes, 1_000_000, frontier.Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(res.Points)), "points")
		}
	})
}
