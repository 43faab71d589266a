package strata

import (
	"fmt"
	"time"

	"pareto/internal/pivots"
	"pareto/internal/sketch"
)

// StratifierConfig configures the end-to-end stratification pipeline:
// pivot sets → sketches → compositeKModes strata.
type StratifierConfig struct {
	// SketchWidth is the number of minhash permutations (sketch
	// coordinates). 0 means DefaultSketchWidth.
	SketchWidth int
	// Cluster configures compositeKModes. Cluster.K is required.
	Cluster Config
	// Seed drives the hash family; clustering uses Cluster.Seed.
	Seed int64
}

// DefaultSketchWidth is the sketch width used when unset. The paper
// keeps sketches orders of magnitude smaller than records; 32 minima
// estimate Jaccard to within ~0.09 standard error, enough to separate
// strata.
const DefaultSketchWidth = 32

// StratifyStats profiles one Stratify call so planner overhead can be
// reported alongside the paper's figures (the §III amortization claim
// only holds while planning stays negligible next to the job).
type StratifyStats struct {
	// SketchTime is the wall-clock time of the bulk sketching stage.
	SketchTime time.Duration
	// ClusterTime is the wall-clock time of compositeKModes.
	ClusterTime time.Duration
	// Iterations is the number of assign/update rounds executed.
	Iterations int
	// MovedTotal sums moved-record counts over all rounds.
	MovedTotal int
	// Busy is the summed busy time of the workers inside the parallel
	// sections: bulk sketching plus Result.Busy (assignment rounds and
	// center updates). A distributed stratification sums its workers'
	// sketch-and-ship time, the coordinator's gather and recovery, and
	// Result.Busy, so either way it is read against the whole
	// stratification's wall time.
	Busy time.Duration

	// FailedAttemptTime is the wall-clock spent in a stratification
	// attempt that failed before this one started: a distributed run
	// that degraded to the local fallback. It is planning overhead and
	// must not be dropped from the audit trail.
	FailedAttemptTime time.Duration
}

// Stratification is the output of the stratifier: the clustering plus
// the sketches it was computed from (kept so representative samples
// can be validated) and per-stratum weight totals.
type Stratification struct {
	*Result
	// Sketches holds the record sketches, indexed like the corpus.
	Sketches []sketch.Sketch
	// WeightTotals[s] is the sum of record weights in stratum s.
	WeightTotals []int
	// Stats profiles the pipeline stages of the Stratify call that
	// produced this stratification.
	Stats StratifyStats
}

// Width returns the configured sketch width: SketchWidth, or
// DefaultSketchWidth when unset.
func (cfg StratifierConfig) Width() int {
	if cfg.SketchWidth <= 0 {
		return DefaultSketchWidth
	}
	return cfg.SketchWidth
}

// Stratify runs the full stratification pipeline over the corpus: the
// sketch pass, then StratifySketches. Sketching is parallelized across
// GOMAXPROCS workers; the sketches are orders of magnitude smaller than
// the corpus, so clustering runs centralized exactly as in the paper
// (§IV).
func Stratify(c pivots.Corpus, cfg StratifierConfig) (*Stratification, error) {
	n := c.Len()
	if n == 0 {
		return nil, fmt.Errorf("strata: empty corpus")
	}
	hasher, err := sketch.NewHasher(cfg.Width(), cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("strata: %w", err)
	}
	start := time.Now()
	sketches, sketchBusy := hasher.SketchAll(n, c.AppendItems, cfg.Cluster.Workers)
	sketchTime := time.Since(start)
	st, err := StratifySketches(c, sketches, cfg)
	if err != nil {
		return nil, err
	}
	st.Stats.SketchTime = sketchTime
	st.Stats.Busy += sketchBusy
	return st, nil
}

// StratifySketches is Stratify without the sketch pass: it clusters
// sketches computed elsewhere — sketches[i] is record i's, hashed with
// cfg's width and seed — and folds the stats and per-stratum weight
// totals. The returned Stratification holds sketches itself, not a
// copy. Its Stats carry no sketch time; Busy is the clustering's.
func StratifySketches(c pivots.Corpus, sketches []sketch.Sketch, cfg StratifierConfig) (*Stratification, error) {
	n := c.Len()
	if n == 0 {
		return nil, fmt.Errorf("strata: empty corpus")
	}
	if len(sketches) != n {
		return nil, fmt.Errorf("strata: %d sketches for %d records", len(sketches), n)
	}
	// Cluster holds every sketch to the first one's width.
	if w := cfg.Width(); len(sketches[0]) != w {
		return nil, fmt.Errorf("strata: sketch width %d, want %d", len(sketches[0]), w)
	}
	var stats StratifyStats
	start := time.Now()
	res, err := Cluster(sketches, cfg.Cluster)
	if err != nil {
		return nil, err
	}
	stats.ClusterTime = time.Since(start)
	stats.Iterations = res.Iterations
	stats.Busy = res.Busy
	for _, it := range res.IterStats {
		stats.MovedTotal += it.Moved
	}
	wt := make([]int, res.K())
	for i, a := range res.Assign {
		wt[a] += c.Weight(i)
	}
	return &Stratification{
		Result: res, Sketches: sketches, WeightTotals: wt, Stats: stats,
	}, nil
}
