// Command paretobench regenerates the paper's tables and figures.
//
// Usage:
//
//	paretobench -list
//	paretobench -exp fig3            # one artifact at the small scale
//	paretobench -exp all -scale paper
//	paretobench -exp fig3 -snapshot telemetry.json
//	paretobench -frontier -frontier-nodes 64 -frontier-alphas 41
//	paretobench -frontier -frontier-exact -serve :8080
//	paretobench -sim -sim-nodes 64 -sim-policy greedy-stealing -sim-rate 200
//	paretobench -sim -sim-trace workload.jsonl -sim-decisions decisions.jsonl
//	paretobench -replan -replan-records 50000 -replan-cycles 8
//
// Each experiment prints an aligned text table with one row per
// (strategy, partition count) or per α point; see DESIGN.md §4 for the
// artifact index and EXPERIMENTS.md for recorded runs. With -snapshot
// the run is instrumented and the final telemetry snapshot — plan-stage
// spans, per-node busy time and green/dirty energy gauges — is written
// to the given file as JSON ("-" for stdout).
//
// -frontier switches to the warm-started frontier enumerator: it
// prints the dominance-filtered Pareto frontier over a paper-shaped
// cluster of -frontier-nodes nodes, with warm/cold solve statistics.
// With -serve the same enumeration is also exported over HTTP at
// /frontier alongside the telemetry endpoints.
//
// -sim switches to the discrete-event cluster simulator: a virtual
// paper-shaped cluster of -sim-nodes nodes serves a seeded synthetic
// workload (-sim-arrivals/-sim-rate/-sim-duration/-sim-seed) or a
// recorded JSONL trace (-sim-trace) under the -sim-policy scheduling
// policy, reporting per-node busy time and green/dirty energy,
// queueing-delay quantiles, and the sustained events/sec. -sim-decisions
// records every routing decision for counterfactual comparison.
//
// -replan switches to the incremental online replanning loop: a seeded
// topic-blocked corpus is planned cold, then each round ingests a
// drifting batch and runs one control cycle — printing whether the loop
// stayed clean, re-stratified incrementally (warm-starting the sizing
// LP from the previous basis), or fell back to a full replan, plus the
// migration move budget spent. A final cold full replan over the
// drifted corpus anchors the incremental cycle times.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"pareto/internal/bench"
	"pareto/internal/frontier"
	"pareto/internal/telemetry"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id ("+strings.Join(bench.Experiments(), ", ")+", all)")
		scale    = flag.String("scale", "small", "dataset scale: small | paper")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		snapshot = flag.String("snapshot", "", "write the final telemetry snapshot as JSON to this file (\"-\" = stdout)")

		frontierMode = flag.Bool("frontier", false, "enumerate the time/energy Pareto frontier instead of running experiments")
		fNodes       = flag.Int("frontier-nodes", 64, "frontier: number of paper-shaped nodes")
		fAlphas      = flag.Int("frontier-alphas", 41, "frontier: α samples for the sweep")
		fExact       = flag.Bool("frontier-exact", false, "frontier: exact breakpoint bisection instead of α sampling")
		fTotal       = flag.Int("frontier-total", 1_000_000, "frontier: total data units to partition")
		serve        = flag.String("serve", "", "serve /frontier and telemetry on this address (e.g. :8080) after printing")

		simMode      = flag.Bool("sim", false, "run the discrete-event cluster simulator instead of experiments")
		simNodes     = flag.Int("sim-nodes", 16, "sim: number of paper-shaped nodes")
		simPolicy    = flag.String("sim-policy", "greedy-stealing", "sim: scheduling policy (round-robin, least-loaded, weighted-scoring, greedy-stealing)")
		simArrivals  = flag.String("sim-arrivals", "poisson", "sim: arrival process (poisson, uniform, bursty)")
		simRate      = flag.Float64("sim-rate", 100, "sim: mean arrival rate, tasks per virtual second")
		simDuration  = flag.Float64("sim-duration", 600, "sim: arrival window, virtual seconds")
		simCost      = flag.Float64("sim-cost", 2e5, "sim: mean abstract cost per task")
		simOffset    = flag.Float64("sim-offset", 0, "sim: start offset into the solar traces, seconds")
		simSeed      = flag.Int64("sim-seed", 1, "sim: workload generator seed")
		simTrace     = flag.String("sim-trace", "", "sim: replay a recorded JSONL task trace instead of generating")
		simDecisions = flag.String("sim-decisions", "", "sim: write the per-decision trace to this JSONL file (\"-\" = stdout)")

		replanMode      = flag.Bool("replan", false, "drive the incremental online replanning loop instead of experiments")
		replanRecords   = flag.Int("replan-records", 50_000, "replan: seed corpus size in records")
		replanTopics    = flag.Int("replan-topics", 32, "replan: planted topics (= strata)")
		replanNodes     = flag.Int("replan-nodes", 4, "replan: number of paper-shaped nodes")
		replanCycles    = flag.Int("replan-cycles", 8, "replan: drift/replan rounds to run")
		replanBatch     = flag.Int("replan-batch", 100, "replan: records ingested per round")
		replanThreshold = flag.Float64("replan-threshold", 5e-5, "replan: per-stratum drift threshold (0 forces full replans)")
		replanBudget    = flag.Int("replan-budget", 2000, "replan: max migration moves per cycle (0 = unbounded)")
	)
	flag.Parse()
	if *list {
		for _, id := range bench.Experiments() {
			fmt.Println(id)
		}
		return
	}
	if *frontierMode {
		if err := runFrontier(*fNodes, *fTotal, *fAlphas, *fExact, *serve); err != nil {
			fmt.Fprintf(os.Stderr, "paretobench: frontier: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *simMode {
		err := runSim(simOpts{
			nodes:     *simNodes,
			policy:    *simPolicy,
			arrivals:  *simArrivals,
			rate:      *simRate,
			duration:  *simDuration,
			cost:      *simCost,
			offset:    *simOffset,
			seed:      *simSeed,
			trace:     *simTrace,
			decisions: *simDecisions,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "paretobench: sim: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *replanMode {
		err := runReplan(replanOpts{
			records:   *replanRecords,
			topics:    *replanTopics,
			nodes:     *replanNodes,
			cycles:    *replanCycles,
			batch:     *replanBatch,
			threshold: *replanThreshold,
			budget:    *replanBudget,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "paretobench: replan: %v\n", err)
			os.Exit(1)
		}
		return
	}
	var s bench.Scale
	switch *scale {
	case "small":
		s = bench.SmallScale()
	case "paper":
		s = bench.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "paretobench: unknown scale %q (want small or paper)\n", *scale)
		os.Exit(2)
	}
	var reg *telemetry.Registry
	if *snapshot != "" {
		reg = telemetry.NewRegistry()
		s.Telemetry = reg
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = bench.Experiments()
	}
	for _, id := range ids {
		start := time.Now()
		rep, err := bench.RunExperiment(id, s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paretobench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("=== %s (%s, %.1fs) ===\n%s\n", rep.ID, rep.Title, time.Since(start).Seconds(), rep.Text)
	}
	if reg != nil {
		if err := writeSnapshot(reg, *snapshot); err != nil {
			fmt.Fprintf(os.Stderr, "paretobench: snapshot: %v\n", err)
			os.Exit(1)
		}
	}
}

// runFrontier enumerates and prints the Pareto frontier for a
// paper-shaped cluster, then optionally serves it over HTTP.
func runFrontier(nodes, total, alphas int, exact bool, addr string) error {
	models := frontier.PaperModels(nodes)
	reg := telemetry.NewRegistry()
	cfg := frontier.Config{Alphas: frontier.UniformAlphas(alphas), Telemetry: reg}

	start := time.Now()
	var (
		res *frontier.Result
		err error
	)
	if exact {
		res, err = frontier.Exact(models, total, cfg)
	} else {
		res, err = frontier.Sweep(models, total, cfg)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	mode := "sweep"
	if exact {
		mode = "exact bisection"
	}
	fmt.Printf("=== frontier (%s, %d nodes, %d units) ===\n", mode, nodes, total)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "α\tmakespan s\tdirty J\twarm\tpivots\t")
	for _, p := range res.Frontier() {
		warm := "cold"
		if p.Warm {
			warm = "warm"
		}
		fmt.Fprintf(tw, "%.6g\t%.4f\t%.1f\t%s\t%d\t\n", p.Alpha, p.Makespan, p.DirtyEnergy, warm, p.Pivots)
	}
	tw.Flush()
	st := res.Stats
	fmt.Printf("%d points (%d dominated pruned) · %d solves (%d warm) · %d pivots (%d warm) · %.1f ms\n",
		len(res.Frontier()), st.Dominated, st.Solves, st.WarmSolves, st.Pivots, st.WarmPivots,
		float64(elapsed.Microseconds())/1000)

	if addr != "" {
		mux := reg.Handler()
		frontier.Mount(mux, frontier.NewService(
			frontier.StaticSource{Nodes: models, Total: total},
			frontier.Config{Telemetry: reg},
		))
		fmt.Printf("serving /frontier and /metrics on %s\n", addr)
		return http.ListenAndServe(addr, mux)
	}
	return nil
}

// writeSnapshot dumps the run's accumulated telemetry as JSON.
func writeSnapshot(reg *telemetry.Registry, path string) error {
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return reg.Snapshot().WriteJSON(w)
}
