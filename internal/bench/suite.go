package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"pareto/internal/cluster"
	"pareto/internal/core"
	"pareto/internal/datasets"
	"pareto/internal/energy"
	"pareto/internal/pivots"
	"pareto/internal/telemetry"
	"pareto/internal/workloads/lz77"
)

// Scale sizes the experiment suite. The paper's full datasets (Table I)
// are reproduced in shape by the generators; Scale shrinks them so a
// run fits a laptop while preserving who-wins comparisons.
type Scale struct {
	// Tree/Graph/Text are generator scale factors relative to Table I.
	Tree  float64
	Graph float64
	Text  float64
	// PartitionCounts is the x-axis of Figures 2–4.
	PartitionCounts []int
	// TraceHours is the solar-trace length.
	TraceHours int
	// TextSupport is the text-mining support fraction.
	TextSupport float64
	// Telemetry, when non-nil, instruments the whole suite: plan-stage
	// spans and corpus gauges from core, per-node busy time and
	// green/dirty energy gauges from every cluster the suite builds.
	Telemetry *telemetry.Registry
}

// The mining settings both scales share: the tree support fraction and
// the pattern-size bounds.
const (
	treeSupport  = 0.3
	textMaxLen   = 3
	treeMaxNodes = 4
)

// options returns the suite defaults with the scale's registry
// attached.
func (s Scale) options() Options {
	o := DefaultOptions()
	o.telemetry = s.Telemetry
	return o
}

// SmallScale runs the whole suite in seconds (CI-sized).
func SmallScale() Scale {
	return Scale{
		// Corpora are kept large enough that 8 partitions can be both
		// support-sane (≥ 8/support records each) and 4:1 skewed.
		Tree: 0.01, Graph: 0.0004, Text: 0.0025,
		PartitionCounts: []int{4, 8},
		TraceHours:      48,
		TextSupport:     0.1,
	}
}

// PaperScale is the larger configuration used for the recorded
// EXPERIMENTS.md numbers (minutes, not seconds).
func PaperScale() Scale {
	return Scale{
		Tree: 0.02, Graph: 0.002, Text: 0.01,
		PartitionCounts: []int{4, 8, 16},
		TraceHours:      72,
		TextSupport:     0.08,
	}
}

// mkPaperCluster returns the cluster factory shared by the suite; the
// scale's telemetry registry rides along onto every cluster built.
func mkPaperCluster(s Scale) func(p int) (*cluster.Cluster, error) {
	return func(p int) (*cluster.Cluster, error) {
		cl, err := cluster.PaperCluster(p, energy.DefaultPanel(), 172, s.TraceHours)
		if err != nil {
			return nil, err
		}
		cl.Telemetry = s.Telemetry
		return cl, nil
	}
}

// Report is one regenerated artifact: an identifier, a rendered text
// table, and the raw rows for programmatic checks.
type Report struct {
	ID    string
	Title string
	Text  string
	Rows  []StrategyRow
	// Frontier is set for Figures 5 and 6.
	Frontier []FrontierRow
}

// Table1 regenerates Table I: the dataset inventory.
func Table1(s Scale) (*Report, error) {
	trees1, _, err := datasets.GenerateTrees(datasets.SwissProtLike(s.Tree))
	if err != nil {
		return nil, err
	}
	trees2, _, err := datasets.GenerateTrees(datasets.TreebankLike(s.Tree))
	if err != nil {
		return nil, err
	}
	g1, _, err := datasets.GenerateGraph(datasets.UKLike(s.Graph))
	if err != nil {
		return nil, err
	}
	g2, _, err := datasets.GenerateGraph(datasets.ArabicLike(s.Graph))
	if err != nil {
		return nil, err
	}
	textCfg := datasets.RCV1Like(s.Text)
	docs, _, err := datasets.GenerateText(textCfg)
	if err != nil {
		return nil, err
	}
	stats := []datasets.Stats{
		datasets.TreeStats("SwissProt-like", trees1),
		datasets.TreeStats("Treebank-like", trees2),
		datasets.GraphStats("UK-like", g1),
		datasets.GraphStats("Arabic-like", g2),
		datasets.TextStats("RCV1-like", docs, textCfg.VocabSize),
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %-6s %10s %12s %10s\n", "dataset", "type", "records", "units", "vocab/N")
	for _, st := range stats {
		fmt.Fprintf(&sb, "%-16s %-6s %10d %12d %10d\n", st.Name, st.Kind, st.Records, st.Units, st.VocabOrN)
	}
	return &Report{ID: "table1", Title: "Table I: datasets (scaled)", Text: sb.String()}, nil
}

// treeWorkload builds the Fig 2 workload for one tree dataset.
func treeWorkload(cfg datasets.TreeConfig, support float64) (*TreeMining, error) {
	trees, _, err := datasets.GenerateTrees(cfg)
	if err != nil {
		return nil, err
	}
	corpus, err := pivots.NewTreeCorpus(trees)
	if err != nil {
		return nil, err
	}
	return &TreeMining{Trees: corpus, SupportFrac: support, MaxNodes: treeMaxNodes}, nil
}

// Fig2 regenerates Figure 2: frequent tree mining time and dirty
// energy on the two tree datasets, three strategies, partition sweep.
func Fig2(s Scale) (*Report, error) {
	var rows []StrategyRow
	var sb strings.Builder
	for _, d := range []struct {
		name string
		cfg  datasets.TreeConfig
	}{
		{"SwissProt-like", datasets.SwissProtLike(s.Tree)},
		{"Treebank-like", datasets.TreebankLike(s.Tree)},
	} {
		w, err := treeWorkload(d.cfg, treeSupport)
		if err != nil {
			return nil, err
		}
		r, err := Sweep(w, s.PartitionCounts, mkPaperCluster(s), s.options())
		if err != nil {
			return nil, fmt.Errorf("fig2 %s: %w", d.name, err)
		}
		fmt.Fprintf(&sb, "-- %s --\n%s", d.name, FormatRows(r))
		rows = append(rows, r...)
	}
	return &Report{ID: "fig2", Title: "Figure 2: frequent tree mining (time & dirty energy)", Text: sb.String(), Rows: rows}, nil
}

// textWorkload builds the Fig 3 workload on the scale's RCV1-like
// corpus.
func textWorkload(s Scale) (*TextMining, error) {
	cfg := datasets.RCV1Like(s.Text)
	docs, _, err := datasets.GenerateText(cfg)
	if err != nil {
		return nil, err
	}
	corpus, err := pivots.NewTextCorpus(docs, cfg.VocabSize)
	if err != nil {
		return nil, err
	}
	return &TextMining{Docs: corpus, SupportFrac: s.TextSupport, MaxLen: textMaxLen}, nil
}

// Fig3 regenerates Figure 3: Apriori on the text corpus.
func Fig3(s Scale) (*Report, error) {
	w, err := textWorkload(s)
	if err != nil {
		return nil, err
	}
	rows, err := Sweep(w, s.PartitionCounts, mkPaperCluster(s), s.options())
	if err != nil {
		return nil, err
	}
	return &Report{ID: "fig3", Title: "Figure 3: frequent text mining on RCV1-like",
		Text: FormatRows(rows), Rows: rows}, nil
}

// graphCorpus generates one webgraph: the corpus of Fig 4 and of
// Tables II/III.
func graphCorpus(cfg datasets.GraphConfig) (*pivots.GraphCorpus, error) {
	g, _, err := datasets.GenerateGraph(cfg)
	if err != nil {
		return nil, err
	}
	return pivots.NewGraphCorpus(g)
}

// graphWorkload builds the Fig 4 workload for one webgraph.
func graphWorkload(cfg datasets.GraphConfig) (*GraphCompression, error) {
	corpus, err := graphCorpus(cfg)
	if err != nil {
		return nil, err
	}
	return &GraphCompression{Graph: corpus}, nil
}

// Fig4 regenerates Figure 4: webgraph compression time, energy and
// compression ratio on the two webgraphs (α = 0.995 per §V-C2).
func Fig4(s Scale) (*Report, error) {
	o := s.options()
	o.Alpha = 0.99         // one notch below the mining α, as in §V-C2
	o.MinPartitionFrac = 0 // compression tolerates starved partitions
	var rows []StrategyRow
	var sb strings.Builder
	for _, d := range []struct {
		name string
		cfg  datasets.GraphConfig
	}{
		{"UK-like", datasets.UKLike(s.Graph)},
		{"Arabic-like", datasets.ArabicLike(s.Graph)},
	} {
		w, err := graphWorkload(d.cfg)
		if err != nil {
			return nil, err
		}
		r, err := Sweep(w, s.PartitionCounts, mkPaperCluster(s), o)
		if err != nil {
			return nil, fmt.Errorf("fig4 %s: %w", d.name, err)
		}
		fmt.Fprintf(&sb, "-- %s --\n%s", d.name, FormatRows(r))
		rows = append(rows, r...)
	}
	return &Report{ID: "fig4", Title: "Figure 4: webgraph compression (time, energy, ratio)", Text: sb.String(), Rows: rows}, nil
}

// lz77Table regenerates Table II (UK) or Table III (Arabic): LZ77 at 8
// partitions.
func lz77Table(id, title string, cfg datasets.GraphConfig, s Scale) (*Report, error) {
	corpus, err := graphCorpus(cfg)
	if err != nil {
		return nil, err
	}
	w := &LZ77Compression{Data: corpus, Cfg: lz77.Config{}}
	o := s.options()
	o.Alpha = 0.99
	o.MinPartitionFrac = 0
	cl, err := mkPaperCluster(s)(8)
	if err != nil {
		return nil, err
	}
	rows, err := CompareStrategies(w, cl, o)
	if err != nil {
		return nil, err
	}
	return &Report{ID: id, Title: title, Text: FormatRows(rows), Rows: rows}, nil
}

// Table2 regenerates Table II: LZ77 on the UK-like graph, 8 partitions.
func Table2(s Scale) (*Report, error) {
	return lz77Table("table2", "Table II: LZ77 on UK-like, 8 partitions", datasets.UKLike(s.Graph), s)
}

// Table3 regenerates Table III: LZ77 on the Arabic-like graph.
func Table3(s Scale) (*Report, error) {
	return lz77Table("table3", "Table III: LZ77 on Arabic-like, 8 partitions", datasets.ArabicLike(s.Graph), s)
}

// fig5Alphas is the α ladder of the frontier figures.
func fig5Alphas() []float64 {
	return []float64{1.0, 0.9999, 0.999, 0.995, 0.99, 0.95, 0.9, 0.5}
}

// Fig5 regenerates Figure 5: measured Pareto frontiers for the tree,
// text and graph workloads at 8 partitions, each beside its Stratified
// baseline row.
func Fig5(s Scale) (*Report, error) {
	var sb strings.Builder
	var frontier []FrontierRow
	cl, err := mkPaperCluster(s)(8)
	if err != nil {
		return nil, err
	}
	tree, err := treeWorkload(datasets.SwissProtLike(s.Tree), treeSupport)
	if err != nil {
		return nil, err
	}
	text, err := textWorkload(s)
	if err != nil {
		return nil, err
	}
	graph, err := graphWorkload(datasets.UKLike(s.Graph))
	if err != nil {
		return nil, err
	}
	// Unfloored, as in Fig 4: a node with no green surplus may get
	// nothing, so the recorded graph rows reach 0.000 J dirty from
	// α = 0.99 down (docs/results-small.txt; 0.658 J under the default
	// floor).
	graphOpts := s.options()
	graphOpts.MinPartitionFrac = 0
	for _, wc := range []struct {
		w Workload
		o Options
	}{
		{tree, s.options()},
		{text, s.options()},
		{graph, graphOpts},
	} {
		rows, err := MeasureFrontier(wc.w, cl, fig5Alphas(), wc.o)
		if err != nil {
			return nil, fmt.Errorf("fig5 %s: %w", wc.w.Name(), err)
		}
		fmt.Fprintf(&sb, "-- %s --\n%s", wc.w.Name(), FormatFrontier(rows))
		frontier = append(frontier, rows...)
	}
	return &Report{ID: "fig5", Title: "Figure 5: Pareto frontiers (8 partitions)", Text: sb.String(), Frontier: frontier}, nil
}

// Fig6 regenerates Figure 6: frontiers across support thresholds for
// the tree and text workloads.
func Fig6(s Scale) (*Report, error) {
	var sb strings.Builder
	var frontier []FrontierRow
	cl, err := mkPaperCluster(s)(8)
	if err != nil {
		return nil, err
	}
	for _, mult := range []float64{1.0, 1.5} {
		tree, err := treeWorkload(datasets.SwissProtLike(s.Tree), treeSupport*mult)
		if err != nil {
			return nil, err
		}
		rows, err := MeasureFrontier(tree, cl, fig5Alphas(), s.options())
		if err != nil {
			return nil, fmt.Errorf("fig6 tree support ×%.1f: %w", mult, err)
		}
		fmt.Fprintf(&sb, "-- tree, support %.3f --\n%s", treeSupport*mult, FormatFrontier(rows))
		frontier = append(frontier, rows...)
	}
	text, err := textWorkload(s)
	if err != nil {
		return nil, err
	}
	for _, mult := range []float64{1.0, 1.5} {
		w := *text
		w.SupportFrac = s.TextSupport * mult
		rows, err := MeasureFrontier(&w, cl, fig5Alphas(), s.options())
		if err != nil {
			return nil, fmt.Errorf("fig6 text support ×%.1f: %w", mult, err)
		}
		fmt.Fprintf(&sb, "-- text, support %.3f --\n%s", s.TextSupport*mult, FormatFrontier(rows))
		frontier = append(frontier, rows...)
	}
	return &Report{ID: "fig6", Title: "Figure 6: frontiers across support thresholds", Text: sb.String(), Frontier: frontier}, nil
}

// OverheadReport measures the framework's one-time planning cost
// (§III: "a one-time cost (small) ... amortized over multiple runs")
// for the text-mining workload: the wall-clock of every stage of one
// Het-Aware plan, as the plan itself recorded it, against the simulated
// makespan of running that same plan.
func OverheadReport(s Scale) (*Report, error) {
	w, err := textWorkload(s)
	if err != nil {
		return nil, err
	}
	cl, err := mkPaperCluster(s)(8)
	if err != nil {
		return nil, err
	}
	sum, wall, makespan, err := planOverhead(w, cl, s.options())
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	for _, st := range sum.Stages {
		fmt.Fprintf(&sb, "%-8s %10.2f ms", st.Name, st.Ms)
		if st.Name == "stratify" {
			fmt.Fprintf(&sb, " (sketch %.2f ms, cluster %.2f ms, %d iters, %d moves)",
				sum.StratifySketchMs, sum.StratifyClusterMs, sum.StratifyIterations, sum.StratifyMoved)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%-8s %10.2f ms\n", "plan", float64(wall.Microseconds())/1000)
	fmt.Fprintf(&sb, "planned-run makespan (simulated): %.3f s\n", makespan)
	return &Report{ID: "overhead", Title: "Framework planning overhead (§III amortization claim)", Text: sb.String()}, nil
}

// planOverhead builds the workload's Het-Aware plan once, timing the
// call, runs that plan once, and returns the plan's own audit (stage
// timings, stratifier stats) with the BuildPlan wall-clock and the
// simulated makespan.
func planOverhead(w Workload, cl *cluster.Cluster, o Options) (*core.PlanSummary, time.Duration, float64, error) {
	if w == nil {
		return nil, 0, 0, errNoWorkload
	}
	cfg := baseConfig(w, o)
	cfg.Strategy = core.HetAware
	start := time.Now()
	plan, err := core.BuildPlan(w.Corpus(), cl, w.Profile, cfg)
	wall := time.Since(start)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("bench: planning %v: %w", cfg.Strategy, err)
	}
	res, _, err := w.Run(cl, plan.Assign, o.TraceOffset)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("bench: running %v: %w", cfg.Strategy, err)
	}
	sum, err := plan.Summary()
	if err != nil {
		return nil, 0, 0, err
	}
	return sum, wall, res.Makespan, nil
}

// Experiments lists every regenerable artifact by ID.
func Experiments() []string {
	return []string{"table1", "fig2", "fig3", "fig4", "table2", "table3", "fig5", "fig6", "overhead"}
}

// RunExperiment dispatches an artifact ID to its generator.
func RunExperiment(id string, s Scale) (*Report, error) {
	switch id {
	case "table1":
		return Table1(s)
	case "fig2":
		return Fig2(s)
	case "fig3":
		return Fig3(s)
	case "fig4":
		return Fig4(s)
	case "table2":
		return Table2(s)
	case "table3":
		return Table3(s)
	case "fig5":
		return Fig5(s)
	case "fig6":
		return Fig6(s)
	case "overhead":
		return OverheadReport(s)
	default:
		ids := Experiments()
		sort.Strings(ids)
		return nil, fmt.Errorf("bench: unknown experiment %q (have %s)", id, strings.Join(ids, ", "))
	}
}
