// Command paretobench regenerates the paper's tables and figures.
//
// Usage:
//
//	paretobench -list
//	paretobench -exp fig3            # one artifact at the small scale
//	paretobench -exp all -scale paper
//	paretobench -exp fig3 -snapshot telemetry.json
//	paretobench -frontier
//	paretobench -frontier -frontier-exact -serve :8080
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
// cluster of 64 nodes and 1,000,000 units, sampled at 41 α values or,
// with -frontier-exact, every vertex found by dichotomic search, with
// warm/cold solve statistics. With -serve the same models are also
// exported over HTTP at /frontier alongside the telemetry endpoints.
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
		fExact       = flag.Bool("frontier-exact", false, "frontier: every vertex (dichotomic search) instead of α sampling")
		serve        = flag.String("serve", "", "serve /frontier and telemetry on this address (e.g. :8080) after printing")
	)
	flag.Parse()
	if *list {
		for _, id := range bench.Experiments() {
			fmt.Println(id)
		}
		return
	}
	if *frontierMode {
		if err := runFrontier(*fExact, *serve); err != nil {
			fmt.Fprintf(os.Stderr, "paretobench: frontier: %v\n", err)
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

// The frontier the -frontier mode enumerates: a paper-shaped cluster of
// frontierNodes nodes sharing frontierTotal data units, swept at
// frontierAlphas uniform α samples unless -frontier-exact asks for
// every vertex.
const (
	frontierNodes  = 64
	frontierAlphas = 41
	frontierTotal  = 1_000_000
)

// runFrontier enumerates and prints the Pareto frontier for a
// paper-shaped cluster, then optionally serves it over HTTP.
func runFrontier(exact bool, addr string) error {
	models := frontier.PaperModels(frontierNodes)
	reg := telemetry.NewRegistry()
	cfg := frontier.Config{Alphas: frontier.UniformAlphas(frontierAlphas), Telemetry: reg}

	start := time.Now()
	var (
		res *frontier.Result
		err error
	)
	if exact {
		res, err = frontier.Exact(models, frontierTotal, cfg)
	} else {
		res, err = frontier.Sweep(models, frontierTotal, cfg)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	mode := "sweep"
	if exact {
		mode = "every vertex"
	}
	fmt.Printf("=== frontier (%s, %d nodes, %d units) ===\n", mode, frontierNodes, frontierTotal)
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
			frontier.StaticSource{Nodes: models, Total: frontierTotal},
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
