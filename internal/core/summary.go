package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// PlanSummary is the serializable description of a Plan: everything an
// operator needs to audit or replay a placement decision, without the
// full record-level assignment (whose size is the dataset's).
type PlanSummary struct {
	Strategy  string  `json:"strategy"`
	Alpha     float64 `json:"alpha"`
	Scheme    string  `json:"scheme"`
	Records   int     `json:"records"`
	Strata    int     `json:"strata"`
	Converged bool    `json:"strata_converged"`
	// DegradedStratify records that the distributed stratification
	// path failed and the plan fell back to the in-process stratifier
	// (the run is still correct, but did not exercise the cluster).
	DegradedStratify bool   `json:"degraded_stratify,omitempty"`
	DegradedReason   string `json:"degraded_reason,omitempty"`
	// Stratifier overhead audit (component III): planning must stay
	// negligible next to the job for the amortization claim to hold.
	StratifyIterations int     `json:"stratify_iterations,omitempty"`
	StratifySketchMs   float64 `json:"stratify_sketch_ms,omitempty"`
	StratifyClusterMs  float64 `json:"stratify_cluster_ms,omitempty"`
	StratifyMoved      int     `json:"stratify_moved_records,omitempty"`
	// StratifyFailedMs is the cost of the distributed attempt that
	// failed before a degraded plan's local stratification: planning
	// overhead too.
	StratifyFailedMs float64 `json:"stratify_failed_attempt_ms,omitempty"`
	// CorpusWeight is the scan stage's summed record weight.
	CorpusWeight int `json:"corpus_weight,omitempty"`
	// Stages is the per-stage wall-clock breakdown of BuildPlan.
	Stages []StageTiming `json:"stages,omitempty"`
	// Sizes is the per-partition record count.
	Sizes []int `json:"sizes"`
	// Nodes carries the learned per-node models (empty for the
	// baseline, which does not profile).
	Nodes []NodeSummary `json:"nodes,omitempty"`
	// PredictedMakespanSec / PredictedDirtyJ are the modeler's
	// predictions (zero for the baseline).
	PredictedMakespanSec float64 `json:"predicted_makespan_sec,omitempty"`
	PredictedDirtyJ      float64 `json:"predicted_dirty_joules,omitempty"`
}

// NodeSummary is one node's learned model in a PlanSummary.
type NodeSummary struct {
	Slope      float64 `json:"slope_sec_per_record"`
	Intercept  float64 `json:"intercept_sec"`
	R2         float64 `json:"r2"`
	DirtyRateW float64 `json:"dirty_rate_watts"`
}

// Summary extracts the serializable view of the plan.
func (p *Plan) Summary() (*PlanSummary, error) {
	if p == nil || p.Assign == nil {
		return nil, errors.New("core: nil plan")
	}
	records := 0
	for _, s := range p.Sizes {
		records += s
	}
	s := &PlanSummary{
		Strategy: p.Strategy.String(),
		Alpha:    p.Alpha,
		Scheme:   p.Scheme.String(),
		Records:  records,
		Sizes:    append([]int(nil), p.Sizes...),

		DegradedStratify: p.DegradedStratify,
		DegradedReason:   p.DegradedReason,
		CorpusWeight:     p.CorpusWeight,
		Stages:           append([]StageTiming(nil), p.Stages...),
	}
	if p.Strat != nil {
		s.Strata = p.Strat.K()
		s.Converged = p.Strat.Converged
		s.StratifyIterations = p.Strat.Stats.Iterations
		s.StratifySketchMs = float64(p.Strat.Stats.SketchTime.Microseconds()) / 1000
		s.StratifyClusterMs = float64(p.Strat.Stats.ClusterTime.Microseconds()) / 1000
		s.StratifyMoved = p.Strat.Stats.MovedTotal
		s.StratifyFailedMs = float64(p.Strat.Stats.FailedAttemptTime.Microseconds()) / 1000
	}
	for _, m := range p.Models {
		s.Nodes = append(s.Nodes, NodeSummary{
			Slope:      m.Time.Slope,
			Intercept:  m.Time.Intercept,
			R2:         m.Time.R2,
			DirtyRateW: m.DirtyRate,
		})
	}
	if p.Optimized != nil {
		s.PredictedMakespanSec = p.Optimized.Makespan
		s.PredictedDirtyJ = p.Optimized.DirtyEnergy
	}
	return s, nil
}

// WriteJSON writes the summary as indented JSON.
func (s *PlanSummary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("core: encoding plan summary: %w", err)
	}
	return nil
}
