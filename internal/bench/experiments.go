package bench

import (
	"fmt"
	"sort"
	"strings"

	"pareto/internal/cluster"
	"pareto/internal/core"
	"pareto/internal/telemetry"
)

// StrategyRow is one measured (strategy, partition count) cell of a
// figure: execution time, dirty energy and workload quality metrics.
type StrategyRow struct {
	Strategy   core.Strategy
	Alpha      float64
	Partitions int
	// TimeSec is the measured job makespan (simulated seconds).
	TimeSec float64
	// DirtyJ / TotalJ are measured energies in joules.
	DirtyJ float64
	TotalJ float64
	// Imbalance is makespan over mean busy time (1.0 = perfect).
	Imbalance float64
	// Quality carries workload metrics (candidates, ratios, …).
	Quality map[string]float64
	// PredictedTimeSec is the modeler's makespan prediction (0 for the
	// baseline, which does not model).
	PredictedTimeSec float64
}

// Options configures an experiment run.
type Options struct {
	// Alpha is the Het-Energy-Aware scalarization weight (paper: 0.999
	// for mining, 0.995 for compression).
	Alpha float64
	// TraceOffset is the job start within the solar traces in seconds
	// (noon of day one by default, so green energy is in play).
	TraceOffset float64
	// Seed feeds sampling.
	Seed int64
	// MinPartitionFrac floors optimized partitions at this fraction of
	// the equal share (mining workloads need ~0.25 to stay out of the
	// scaled-support degenerate regime; compression can use 0).
	MinPartitionFrac float64
	// Telemetry, when non-nil, instruments planning (stage spans, corpus
	// gauges) for every strategy run. Cluster-side metrics attach to the
	// cluster itself (see Scale.Telemetry / mkPaperCluster).
	Telemetry *telemetry.Registry
}

// DefaultOptions mirror the paper's FPM settings. The paper sets
// α = 0.999 for mining; because our simulated jobs are shorter, the
// dirty-energy objective's scale relative to time is smaller here, and
// the same point of the tradeoff region sits at α ≈ 0.995 (the scale
// dependence of raw α is exactly the problem §III-D flags).
func DefaultOptions() Options {
	return Options{Alpha: 0.995, TraceOffset: 12 * 3600, MinPartitionFrac: 0.25}
}

// baseConfig is the pipeline configuration every experiment shares for
// a workload; callers set Strategy (and Alpha) on a copy.
func baseConfig(w Workload, o Options) core.Config {
	return core.Config{
		Scheme:              w.Scheme(),
		SampleSeed:          o.Seed,
		TraceOffset:         o.TraceOffset,
		MinPartitionFrac:    o.MinPartitionFrac,
		MinPartitionRecords: w.MinPartitionRecords(),
		Telemetry:           o.Telemetry,
	}
}

// strategiesFor returns the paper's three strategies at the given α.
func strategiesFor(w Workload, o Options) []core.Config {
	base := baseConfig(w, o)
	strat := base
	strat.Strategy = core.Stratified
	het := base
	het.Strategy = core.HetAware
	hea := base
	hea.Strategy = core.HetEnergyAware
	hea.Alpha = o.Alpha
	return []core.Config{strat, het, hea}
}

// RunStrategy builds the plan for one strategy and executes the
// workload, returning the measured row.
func RunStrategy(w Workload, cl *cluster.Cluster, cfg core.Config, offset float64) (*StrategyRow, error) {
	if w == nil {
		return nil, errNoWorkload
	}
	plan, err := core.BuildPlan(w.Corpus(), cl, w.Profile, cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: planning %v: %w", cfg.Strategy, err)
	}
	res, quality, err := w.Run(cl, plan.Assign, offset)
	if err != nil {
		return nil, fmt.Errorf("bench: running %v: %w", cfg.Strategy, err)
	}
	row := &StrategyRow{
		Strategy:   cfg.Strategy,
		Alpha:      plan.Alpha,
		Partitions: cl.P(),
		TimeSec:    res.Makespan,
		DirtyJ:     res.DirtyEnergy,
		TotalJ:     res.TotalEnergy,
		Imbalance:  res.Imbalance(),
		Quality:    quality,
	}
	if plan.Optimized != nil {
		row.PredictedTimeSec = plan.Optimized.Makespan
	}
	return row, nil
}

// CompareStrategies runs all three strategies at one partition count.
func CompareStrategies(w Workload, cl *cluster.Cluster, o Options) ([]StrategyRow, error) {
	rows := make([]StrategyRow, 0, 3)
	for _, cfg := range strategiesFor(w, o) {
		row, err := RunStrategy(w, cl, cfg, o.TraceOffset)
		if err != nil {
			return nil, err
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

// Sweep runs CompareStrategies across partition counts (the x-axis of
// Figures 2–4), building a fresh paper cluster per count.
func Sweep(w Workload, partitionCounts []int, mkCluster func(p int) (*cluster.Cluster, error), o Options) ([]StrategyRow, error) {
	var rows []StrategyRow
	for _, p := range partitionCounts {
		cl, err := mkCluster(p)
		if err != nil {
			return nil, err
		}
		r, err := CompareStrategies(w, cl, o)
		if err != nil {
			return nil, fmt.Errorf("bench: %d partitions: %w", p, err)
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// FrontierRow is one measured point of a Pareto-frontier figure.
type FrontierRow struct {
	Alpha    float64
	TimeSec  float64
	DirtyJ   float64
	Baseline bool // the Stratified reference point
}

// MeasureFrontier sweeps α (Figure 5): for each value it builds a plan
// and *executes* it, so the frontier is measured, not just predicted.
// The Stratified baseline is appended as the reference point.
func MeasureFrontier(w Workload, cl *cluster.Cluster, alphas []float64, o Options) ([]FrontierRow, error) {
	if w == nil {
		return nil, errNoWorkload
	}
	rows := make([]FrontierRow, 0, len(alphas)+1)
	base := baseConfig(w, o)
	for _, a := range alphas {
		cfg := base
		if a >= 1 {
			cfg.Strategy = core.HetAware
		} else {
			cfg.Strategy = core.HetEnergyAware
			cfg.Alpha = a
			if a <= 0 {
				// α = 0 is outside HetEnergyAware's domain; emulate
				// with a vanishing weight.
				cfg.Alpha = 1e-9
			}
		}
		row, err := RunStrategy(w, cl, cfg, o.TraceOffset)
		if err != nil {
			return nil, err
		}
		rows = append(rows, FrontierRow{Alpha: a, TimeSec: row.TimeSec, DirtyJ: row.DirtyJ})
	}
	cfg := base
	cfg.Strategy = core.Stratified
	row, err := RunStrategy(w, cl, cfg, o.TraceOffset)
	if err != nil {
		return nil, err
	}
	rows = append(rows, FrontierRow{Alpha: -1, TimeSec: row.TimeSec, DirtyJ: row.DirtyJ, Baseline: true})
	return rows, nil
}

// Improvement returns the relative reduction of b versus a: (a−b)/a.
func Improvement(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (a - b) / a
}

// FormatRows renders strategy rows as an aligned text table, one line
// per row, with the quality metrics the workload reported.
func FormatRows(rows []StrategyRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %5s %7s %12s %12s %9s  %s\n",
		"strategy", "p", "alpha", "time(s)", "dirty(kJ)", "imbalance", "quality")
	for _, r := range rows {
		keys := make([]string, 0, len(r.Quality))
		for k := range r.Quality {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var qs []string
		for _, k := range keys {
			qs = append(qs, fmt.Sprintf("%s=%.4g", k, r.Quality[k]))
		}
		fmt.Fprintf(&sb, "%-18s %5d %7.4g %12.3f %12.3f %9.2f  %s\n",
			r.Strategy, r.Partitions, r.Alpha, r.TimeSec, r.DirtyJ/1000, r.Imbalance, strings.Join(qs, " "))
	}
	return sb.String()
}

// FormatFrontier renders frontier rows as an aligned text table.
func FormatFrontier(rows []FrontierRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%10s %12s %12s %s\n", "alpha", "time(s)", "dirty(kJ)", "point")
	for _, r := range rows {
		label := "pareto"
		alpha := fmt.Sprintf("%.6g", r.Alpha)
		if r.Baseline {
			label = "stratified-baseline"
			alpha = "-"
		}
		fmt.Fprintf(&sb, "%10s %12.3f %12.3f %s\n", alpha, r.TimeSec, r.DirtyJ/1000, label)
	}
	return sb.String()
}
