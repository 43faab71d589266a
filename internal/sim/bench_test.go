package sim

import (
	"fmt"
	"testing"

	"pareto/internal/cluster"
)

// benchWorkload builds a ~halfMillion-task stream sized so the 16-node
// paper cluster runs at ~90% utilization: capacity is
// Σspeed × rate = 40e6 cost/s, demand is 72 tasks/s × 5e5 cost.
func benchWorkload(b *testing.B) (*cluster.Cluster, []Task) {
	b.Helper()
	cl := paperCluster(b, 16, 172)
	tasks, err := Generate(GenConfig{
		Process:    Poisson,
		Rate:       72,
		Duration:   7000,
		CostMean:   5e5,
		CostSpread: 0.5,
		Seed:       1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return cl, tasks
}

// BenchmarkSimMillionEvents drives ~1M events (half a million tasks,
// one arrival + one completion each) through the engine per iteration
// and reports the sustained event rate as ops/s. The acceptance floor
// is 1M events/sec single-core; CI archives the number in
// BENCH_sim.json via cmd/benchjson.
func BenchmarkSimMillionEvents(b *testing.B) {
	cl, tasks := benchWorkload(b)
	for _, name := range []string{"least-loaded", "greedy-stealing"} {
		b.Run(name, func(b *testing.B) {
			pol, err := PolicyByName(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var events int64
			for i := 0; i < b.N; i++ {
				res, err := Run(Config{Cluster: cl, Policy: pol}, tasks)
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
			}
			b.StopTimer()
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(events)/sec, "ops/s")
				b.ReportMetric(float64(events)/float64(b.N), "events/op")
			}
		})
	}
}

// BenchmarkSimScaleNodes sweeps cluster size at a fixed ~100k-task
// stream, exposing the per-decision O(nodes) policy scan.
func BenchmarkSimScaleNodes(b *testing.B) {
	tasks, err := Generate(GenConfig{Process: Poisson, Rate: 500, Duration: 200, CostMean: 5e5, CostSpread: 0.5, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("nodes=%d", p), func(b *testing.B) {
			cl := paperCluster(b, p, 172)
			b.ResetTimer()
			var events int64
			for i := 0; i < b.N; i++ {
				res, err := Run(Config{Cluster: cl, Policy: &GreedyStealing{}}, tasks)
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
			}
			b.StopTimer()
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(events)/sec, "ops/s")
			}
		})
	}
}
