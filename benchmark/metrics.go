package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Workload names.
const (
	wText     = "text_mining_dist"
	wLZ       = "lz77_durable"
	wReplan   = "replan_online"
	wFrontier = "frontier_serve"
)

// minReps and minOps are the floors under any --seconds scaling.
const (
	minReps = 5
	minOps  = 110
)

// sizes are the input sizes and repetition counts. They are constants
// of the benchmark, not flags, and are echoed into the results file so
// that two result files are always comparable.
type sizes struct {
	// Setups is how many times at least a workload is set up in the
	// timed pass; setup_s is the median. A set-up that takes a fraction
	// of a second is too short to read from two samples, so set-up is
	// repeated, up to MaxSetups times, until setupBudget is spent.
	Setups    int `json:"setups"`
	MaxSetups int `json:"max_setups"`

	TreeScale float64 `json:"tree_scale"`
	TreeReps  int     `json:"tree_reps"`

	TextScale float64 `json:"text_scale"`
	TextReps  int     `json:"text_reps"`

	LZScale float64 `json:"lz77_scale"`
	LZReps  int     `json:"lz77_reps"`

	ReplanDocs      int `json:"replan_docs"`
	ReplanTopics    int `json:"replan_topics"`
	ReplanOps       int `json:"replan_ops"`
	ReplanTracedOps int `json:"replan_traced_ops"`
	ReplanBatch     int `json:"replan_batch"`
	ReplanBudget    int `json:"replan_move_budget"`

	FrontierNodes          int `json:"frontier_nodes"`
	FrontierTotal          int `json:"frontier_total"`
	FrontierRequests       int `json:"frontier_requests"`
	FrontierTracedRequests int `json:"frontier_traced_requests"`
}

// metricDef describes one named metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the relative worsening that counts as a regression; only
	// the end-to-end metrics have one.
	Bound float64
	// On lists the workloads that define the metric; nil means all.
	On []string
	// Exact marks values that repeat exactly per seed.
	Exact bool
	// Moves names, for a per-layer metric, the end-to-end metric it
	// should move.
	Moves string
}

func (m metricDef) definedOn(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

var (
	onPlan     = []string{wTree, wText}
	onPipeline = []string{wTree, wText, wLZ}
	onStore    = []string{wText, wLZ}
	onLoop     = []string{wReplan, wFrontier}
	onKV       = []string{wText, wLZ, wReplan}
)

// endToEnd are the metrics a user of the system would see, each with
// the bound -compare holds it to. fail_frac's bound is absolute.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "e2e_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "plan_s", Unit: "s", Better: "lower", Bound: 0.25, On: onPlan},
	{Name: "place_s", Unit: "s", Better: "lower", Bound: 0.25, On: onPipeline},
	{Name: "fetch_s", Unit: "s", Better: "lower", Bound: 0.25, On: onStore},
	{Name: "recover_s", Unit: "s", Better: "lower", Bound: 0.25, On: []string{wLZ}},
	{Name: "exec_s", Unit: "s", Better: "lower", Bound: 0.25, On: onPipeline},
	{Name: "makespan_sim_s", Unit: "sim_s", Better: "lower", Bound: 0.02, On: onPipeline, Exact: true},
	{Name: "dirty_energy_j", Unit: "J", Better: "lower", Bound: 0.02, On: onPipeline, Exact: true},
	{Name: "plan_overhead_ratio", Unit: "ratio", Better: "lower", Bound: 0.25, On: onPlan},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25, On: onLoop},
	{Name: "op_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25, On: onLoop},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "fail_frac", Unit: "fraction", Better: "lower", Bound: 0},
}

// perLayer are the metrics of single layers; names are layer.metric and
// the layers are this repo's packages.
var perLayer = []metricDef{
	{Name: "pivots.build_ms", Unit: "ms", Better: "lower", On: onPlan, Moves: "plan_s"},
	{Name: "pivots.decode_ms", Unit: "ms", Better: "lower", On: []string{wText}, Moves: "fetch_s"},
	{Name: "sketch.ms", Unit: "ms", Better: "lower", On: onPlan, Moves: "plan_s"},
	{Name: "strata.kmodes_ms", Unit: "ms", Better: "lower", On: onPlan, Moves: "plan_s"},
	{Name: "strata.kmodes_iters", Unit: "count", Better: "lower", On: onPlan, Exact: true, Moves: "strata.kmodes_ms"},
	{Name: "strata.kmodes_moves", Unit: "count", Better: "lower", On: onPlan, Exact: true, Moves: "strata.kmodes_ms"},
	{Name: "core.stage_scan_ms", Unit: "ms", Better: "lower", On: onPlan, Moves: "plan_s"},
	{Name: "core.stage_stratify_ms", Unit: "ms", Better: "lower", On: onPlan, Moves: "plan_s"},
	{Name: "core.stage_profile_ms", Unit: "ms", Better: "lower", On: onPlan, Moves: "plan_s"},
	{Name: "core.stage_optimize_ms", Unit: "ms", Better: "lower", On: onPlan, Moves: "plan_s"},
	{Name: "core.stage_assign_ms", Unit: "ms", Better: "lower", On: onPlan, Moves: "plan_s"},
	{Name: "core.profile_self_ms", Unit: "ms", Better: "lower", On: onPlan, Moves: "plan_s"},
	{Name: "workload.profile_ms", Unit: "ms", Better: "lower", On: onPlan, Moves: "plan_s"},
	{Name: "workload.profile_calls", Unit: "count", Better: "lower", On: onPlan, Exact: true, Moves: "plan_s"},
	{Name: "parallel.busy_frac", Unit: "ratio", Better: "higher", On: onPlan, Moves: "plan_s"},
	{Name: "opt.optimize_ms", Unit: "ms", Better: "lower", On: onPlan, Moves: "plan_s"},
	{Name: "lp.pivots_cold", Unit: "count", Better: "lower", On: onPlan, Exact: true, Moves: "plan_s"},
	{Name: "opt.makespan_pred_err", Unit: "ratio", Better: "lower", On: onPipeline, Exact: true, Moves: "makespan_sim_s"},
	{Name: "cluster.exec_ms", Unit: "ms", Better: "lower", On: onPipeline, Moves: "exec_s"},
	{Name: "cluster.imbalance", Unit: "ratio", Better: "lower", On: onPipeline, Exact: true, Moves: "makespan_sim_s"},
	{Name: "partitioner.place_self_ms", Unit: "ms", Better: "lower", On: onPipeline, Moves: "place_s"},
	{Name: "partitioner.moves", Unit: "count", Better: "lower", On: []string{wLZ}, Exact: true, Moves: "place_s"},
	{Name: "kvstore.write_ms", Unit: "ms", Better: "lower", On: onKV, Moves: "place_s"},
	{Name: "kvstore.read_ms", Unit: "ms", Better: "lower", On: onKV, Moves: "fetch_s"},
	{Name: "kvstore.bytes_in", Unit: "B", Better: "lower", On: onKV, Moves: "place_s"},
	{Name: "kvstore.bytes_out", Unit: "B", Better: "lower", On: onKV, Moves: "fetch_s"},
	{Name: "kvstore.commands", Unit: "count", Better: "lower", On: onKV, Moves: "place_s"},
	{Name: "kvstore.aof_fsyncs", Unit: "count", Better: "lower", On: []string{wLZ}, Moves: "place_s"},
	{Name: "kvstore.aof_group_waits", Unit: "count", Better: "lower", On: []string{wLZ}, Moves: "place_s"},
	{Name: "kvstore.aof_bytes", Unit: "B", Better: "lower", On: []string{wLZ}, Exact: true, Moves: "place_s"},
	{Name: "kvstore.write_amp", Unit: "ratio", Better: "lower", On: []string{wLZ}, Exact: true, Moves: "recover_s"},
	{Name: "kvstore.replay_ms", Unit: "ms", Better: "lower", On: []string{wLZ}, Moves: "recover_s"},
	{Name: "kvstore.client_ops", Unit: "count", Better: "lower", On: []string{wText}, Moves: "place_s"},
	{Name: "kvstore.client_retries", Unit: "count", Better: "lower", On: []string{wText}, Moves: "fail_frac"},
	{Name: "kvstore.moved_redirects", Unit: "count", Better: "lower", On: []string{wText}, Moves: "place_s"},
	{Name: "distrib.stratify_ms", Unit: "ms", Better: "lower", On: []string{wText}, Moves: "plan_s"},
	{Name: "distrib.wire_ms", Unit: "ms", Better: "lower", On: []string{wText}, Moves: "plan_s"},
	{Name: "distrib.ship_bytes", Unit: "B", Better: "lower", On: []string{wText}, Exact: true, Moves: "distrib.wire_ms"},
	{Name: "distrib.barrier_wait_ms", Unit: "ms", Better: "lower", On: []string{wText}, Moves: "distrib.wire_ms"},
	{Name: "distrib.recovered_shards", Unit: "count", Better: "lower", On: []string{wText}, Exact: true, Moves: "distrib.wire_ms"},
	{Name: "replan.cycles_clean", Unit: "count", Better: "lower", On: []string{wReplan}, Exact: true, Moves: "op_ms_p50"},
	{Name: "replan.cycles_incremental", Unit: "count", Better: "lower", On: []string{wReplan}, Exact: true, Moves: "op_ms_p50"},
	{Name: "replan.cycles_full", Unit: "count", Better: "lower", On: []string{wReplan}, Exact: true, Moves: "op_ms_p90"},
	{Name: "replan.lp_warm", Unit: "count", Better: "higher", On: []string{wReplan}, Exact: true, Moves: "op_ms_p50"},
	{Name: "replan.lp_cold", Unit: "count", Better: "lower", On: []string{wReplan}, Exact: true, Moves: "op_ms_p50"},
	{Name: "replan.profile_runs", Unit: "count", Better: "lower", On: []string{wReplan}, Exact: true, Moves: "op_ms_p50"},
	{Name: "replan.profile_cache_hits", Unit: "count", Better: "higher", On: []string{wReplan}, Exact: true, Moves: "op_ms_p50"},
	{Name: "replan.moves_applied", Unit: "count", Better: "lower", On: []string{wReplan}, Exact: true, Moves: "op_ms_p90"},
	{Name: "replan.moves_deferred", Unit: "count", Better: "lower", On: []string{wReplan}, Exact: true, Moves: "op_ms_p90"},
	{Name: "replan.poll_ms", Unit: "ms", Better: "lower", On: []string{wReplan}, Moves: "op_ms_p50"},
	{Name: "replan.cycle_self_ms", Unit: "ms", Better: "lower", On: []string{wReplan}, Moves: "op_ms_p50"},
	{Name: "replan.full_cycle_ms", Unit: "ms", Better: "lower", On: []string{wReplan}, Moves: "e2e_s"},
	{Name: "replan.incr_speedup", Unit: "ratio", Better: "higher", On: []string{wReplan}, Moves: "op_ms_p50"},
	{Name: "frontier.elapsed_ms_p50", Unit: "ms", Better: "lower", On: []string{wFrontier}, Moves: "op_ms_p50"},
	{Name: "frontier.http_overhead_ms_p50", Unit: "ms", Better: "lower", On: []string{wFrontier}, Moves: "op_ms_p50"},
	{Name: "frontier.solves", Unit: "count", Better: "lower", On: []string{wFrontier}, Exact: true, Moves: "frontier.elapsed_ms_p50"},
	{Name: "frontier.warm_solves", Unit: "count", Better: "higher", On: []string{wFrontier}, Exact: true, Moves: "frontier.elapsed_ms_p50"},
	{Name: "frontier.pivots", Unit: "count", Better: "lower", On: []string{wFrontier}, Exact: true, Moves: "frontier.elapsed_ms_p50"},
	{Name: "frontier.warm_pivots", Unit: "count", Better: "lower", On: []string{wFrontier}, Exact: true, Moves: "frontier.elapsed_ms_p50"},
	{Name: "frontier.points", Unit: "count", Better: "higher", On: []string{wFrontier}, Exact: true, Moves: "frontier.elapsed_ms_p50"},
	{Name: "frontier.dominated", Unit: "count", Better: "lower", On: []string{wFrontier}, Exact: true, Moves: "frontier.elapsed_ms_p50"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "e2e_s"},
	{Name: "go.num_gc", Unit: "count", Better: "lower", Moves: "alloc_mb"},
	{Name: "go.heap_peak_mb", Unit: "MB", Better: "lower", Moves: "alloc_mb"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.unattributed_frac", Unit: "ratio", Better: "lower"},
}

// contractEndToEnd are the end-to-end metrics that every workload
// defines and that are never 0. Only these can be gated by a driver
// that expects every end-to-end metric from every workload; the other
// end-to-end metrics travel with the per-layer ones on the traced line.
func contractEndToEnd() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if m.On == nil && m.Name != "fail_frac" {
			out = append(out, m)
		}
	}
	return out
}

// contractPerLayer is every other metric except fail_frac, which the
// result line carries as its attempted and failed counts.
func contractPerLayer() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if m.On != nil {
			out = append(out, m)
		}
	}
	return append(out, perLayer...)
}

// metricValue is one reported metric: the median over N samples with
// the extremes beside it.
type metricValue struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
	Bound float64 `json:"bound,omitempty"`
	Exact bool    `json:"exact,omitempty"`
}

// workloadResult is one workload's section of a results file.
type workloadResult struct {
	Name      string        `json:"name"`
	Why       string        `json:"why"`
	Attempted int64         `json:"attempted"`
	Failed    int64         `json:"failed"`
	Failures  []string      `json:"failures,omitempty"`
	Reps      int           `json:"reps"`
	EndToEnd  []metricValue `json:"end_to_end"`
	PerLayer  []metricValue `json:"per_layer,omitempty"`
	// RecordsPerS is derived from e2e_s and printed beside it; it is
	// not gated.
	RecordsPerS float64 `json:"records_per_s"`
}

func (w *workloadResult) find(name string) (metricValue, bool) {
	for _, m := range w.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	for _, m := range w.PerLayer {
		if m.Name == name {
			return m, true
		}
	}
	return metricValue{}, false
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Env       envInfo          `json:"env"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Traced    bool             `json:"traced"`
	Sizes     sizes            `json:"sizes"`
	Workloads []workloadResult `json:"workloads"`
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

func writeResults(path string, rf *resultsFile) error {
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// summarize reduces per-repetition samples to one metricValue per
// defined metric: the median with min and max. Metrics no sample
// carries are left out, never reported as 0.
func summarize(defs []metricDef, workload string, samples []sample) []metricValue {
	var out []metricValue
	for _, d := range defs {
		if !d.definedOn(workload) {
			continue
		}
		var vs []float64
		for _, s := range samples {
			if v, ok := s[d.Name]; ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			continue
		}
		lo, hi := minMax(vs)
		out = append(out, metricValue{Name: d.Name, Unit: d.Unit, Value: median(vs), Min: lo, Max: hi, N: len(vs), Bound: d.Bound, Exact: d.Exact})
	}
	return out
}

// verdict compares one end-to-end metric between two runs of the same
// benchmark: the relative difference of b against a, signed so that
// positive is worse, and whether the two agree within the bound.
func verdict(d metricDef, a, b float64) (rel float64, agree bool) {
	if d.Name == "fail_frac" {
		return b - a, b <= a
	}
	if a == 0 {
		return 0, b == 0
	}
	rel = (b - a) / a
	if d.Better == "higher" {
		rel = -rel
	}
	return rel, math.Abs(rel) <= d.Bound
}

// compare prints, per workload and end-to-end metric, both values, the
// relative difference, the bound and agree or DISAGREE, then every
// exact count that differs. It returns the number of disagreements.
func compare(w io.Writer, a, b *resultsFile) (int, error) {
	if a.Sizes != b.Sizes || a.Seconds != b.Seconds {
		return 0, fmt.Errorf("the two files were measured at different sizes or run lengths and cannot be compared")
	}
	disagree := 0
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			continue
		}
		for _, d := range endToEnd {
			ma, okA := wa.find(d.Name)
			mb, okB := wb.find(d.Name)
			if !okA || !okB {
				continue
			}
			rel, ok := verdict(d, ma.Value, mb.Value)
			word := "agree"
			if !ok {
				word = "DISAGREE"
				disagree++
			}
			fmt.Fprintf(w, "%-17s %-20s %14.6g %14.6g %-8s %+8.2f%%  bound %5.1f%%  %s\n",
				wa.Name, d.Name, ma.Value, mb.Value, d.Unit, 100*rel, 100*d.Bound, word)
		}
		var names []string
		for _, ma := range append(append([]metricValue(nil), wa.EndToEnd...), wa.PerLayer...) {
			if mb, ok := wb.find(ma.Name); ok && ma.Exact && ma.Value != mb.Value && a.Seed == b.Seed {
				names = append(names, fmt.Sprintf("%s (%v vs %v)", ma.Name, ma.Value, mb.Value))
			}
		}
		sort.Strings(names)
		if len(names) > 0 {
			fmt.Fprintf(w, "%-17s exact counts differ: %s\n", wa.Name, strings.Join(names, ", "))
		}
	}
	return disagree, nil
}
