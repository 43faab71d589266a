package bench

import (
	"fmt"
	"sort"
	"strings"

	"pareto/internal/cluster"
	"pareto/internal/core"
	"pareto/internal/frontier"
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
	// DirtyJ is the measured dirty energy in joules.
	DirtyJ float64
	// Imbalance is makespan over mean busy time (1.0 = perfect).
	Imbalance float64
	// Quality carries workload metrics (candidates, ratios, …).
	Quality map[string]float64
}

// Options configures an experiment run.
type Options struct {
	// Alpha is the Het-Energy-Aware scalarization weight (paper: 0.999
	// for mining, 0.995 for compression).
	Alpha float64
	// TraceOffset is the job start within the solar traces in seconds
	// (noon of day one by default, so green energy is in play).
	TraceOffset float64
	// MinPartitionFrac floors optimized partitions at this fraction of
	// the equal share (mining workloads need ~0.25 to stay out of the
	// scaled-support degenerate regime; compression can use 0).
	MinPartitionFrac float64
	// telemetry, when non-nil, instruments planning (stage spans, corpus
	// gauges) for every strategy run. Cluster-side metrics attach to the
	// cluster itself (see Scale.Telemetry / mkPaperCluster).
	telemetry *telemetry.Registry
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
// a workload; the cells of a figure vary only the strategy and α.
func baseConfig(w Workload, o Options) core.Config {
	return core.Config{
		Scheme:              w.Scheme(),
		TraceOffset:         o.TraceOffset,
		MinPartitionFrac:    o.MinPartitionFrac,
		MinPartitionRecords: w.MinPartitionRecords(),
		Telemetry:           o.telemetry,
	}
}

// cell is one (strategy, α) point of a figure.
type cell struct {
	strategy core.Strategy
	alpha    float64
}

// runCells plans and runs every cell on cl from one Prepare of the
// workload's corpus: strata and ladder costs depend on neither s nor α.
func runCells(w Workload, cl *cluster.Cluster, o Options, cells []cell) ([]StrategyRow, error) {
	if w == nil {
		return nil, errNoWorkload
	}
	pr, err := core.Prepare(w.Corpus(), cl.P(), w.Profile, baseConfig(w, o))
	if err != nil {
		return nil, fmt.Errorf("bench: preparing %s: %w", w.Name(), err)
	}
	rows := make([]StrategyRow, 0, len(cells))
	for _, c := range cells {
		plan, err := pr.Plan(cl, c.strategy, c.alpha)
		if err != nil {
			return nil, fmt.Errorf("bench: planning %v: %w", c.strategy, err)
		}
		row, err := measure(w, cl, plan, o.TraceOffset)
		if err != nil {
			return nil, err
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

// measure executes a plan of the workload and returns the measured row.
func measure(w Workload, cl *cluster.Cluster, plan *core.Plan, offset float64) (*StrategyRow, error) {
	res, quality, err := w.Run(cl, plan.Assign, offset)
	if err != nil {
		return nil, fmt.Errorf("bench: running %v: %w", plan.Strategy, err)
	}
	return &StrategyRow{
		Strategy:   plan.Strategy,
		Alpha:      plan.Alpha,
		Partitions: cl.P(),
		TimeSec:    res.Makespan,
		DirtyJ:     res.DirtyEnergy,
		Imbalance:  res.Imbalance(),
		Quality:    quality,
	}, nil
}

// CompareStrategies runs all three strategies at one partition count.
func CompareStrategies(w Workload, cl *cluster.Cluster, o Options) ([]StrategyRow, error) {
	return runCells(w, cl, o, []cell{{core.Stratified, 1}, {core.HetAware, 1}, {core.HetEnergyAware, o.Alpha}})
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
	// Dominated is set when another executed row of the same sweep,
	// the baseline included, is no worse in measured time and dirty
	// energy and strictly better in one (frontier.DominatesVec).
	Dominated bool
}

// MeasureFrontier sweeps α (Figure 5): for each value it builds a plan
// and *executes* it, so the frontier is measured, not just predicted.
// The Stratified baseline is appended as the reference point.
func MeasureFrontier(w Workload, cl *cluster.Cluster, alphas []float64, o Options) ([]FrontierRow, error) {
	cells := make([]cell, len(alphas), len(alphas)+1)
	for i, a := range alphas {
		cells[i] = cell{core.HetEnergyAware, a}
		if a >= 1 {
			cells[i] = cell{core.HetAware, 1}
		} else if a <= 0 {
			cells[i].alpha = 1e-9 // α = 0 is outside Het-Energy-Aware's domain
		}
	}
	rows, err := runCells(w, cl, o, append(cells, cell{core.Stratified, 1}))
	if err != nil {
		return nil, err
	}
	out := make([]FrontierRow, len(rows))
	for i, r := range rows {
		out[i] = FrontierRow{Alpha: -1, TimeSec: r.TimeSec, DirtyJ: r.DirtyJ, Baseline: i == len(alphas)}
		if i < len(alphas) {
			out[i].Alpha = alphas[i]
		}
	}
	markDominated(out)
	return out, nil
}

// markDominated sets Dominated on every row that another row of rows
// Pareto-dominates in (TimeSec, DirtyJ).
func markDominated(rows []FrontierRow) {
	for i := range rows {
		for j := range rows {
			if frontier.DominatesVec([]float64{rows[j].TimeSec, rows[j].DirtyJ}, []float64{rows[i].TimeSec, rows[i].DirtyJ}) {
				rows[i].Dominated = true
				break
			}
		}
	}
}

// FormatRows renders strategy rows as an aligned text table, one line
// per row, with the quality metrics the workload reported. Dirty energy
// prints in joules: the small-scale cells draw well under one kJ.
func FormatRows(rows []StrategyRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %5s %7s %12s %12s %9s  %s\n",
		"strategy", "p", "alpha", "time(s)", "dirty(J)", "imbalance", "quality")
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
			r.Strategy, r.Partitions, r.Alpha, r.TimeSec, r.DirtyJ, r.Imbalance, strings.Join(qs, " "))
	}
	return sb.String()
}

// FormatFrontier renders frontier rows as an aligned text table. The
// point column reads stratified-baseline for the baseline, dominated
// for an α row another row dominates, and pareto for the rest.
func FormatFrontier(rows []FrontierRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%10s %12s %12s %s\n", "alpha", "time(s)", "dirty(J)", "point")
	for _, r := range rows {
		label := "pareto"
		alpha := fmt.Sprintf("%.6g", r.Alpha)
		switch {
		case r.Baseline:
			label = "stratified-baseline"
			alpha = "-"
		case r.Dominated:
			label = "dominated"
		}
		fmt.Fprintf(&sb, "%10s %12.3f %12.3f %s\n", alpha, r.TimeSec, r.DirtyJ, label)
	}
	return sb.String()
}
