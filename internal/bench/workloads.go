// Package bench is the experiment harness: it binds the corpora to the
// four analytics workloads, runs the paper's three partitioning
// strategies on the simulated heterogeneous cluster, and regenerates
// every table and figure of the evaluation (§V). See DESIGN.md's
// experiment index for the mapping.
package bench

import (
	"errors"

	"pareto/internal/cluster"
	"pareto/internal/partitioner"
	"pareto/internal/pivots"
	"pareto/internal/workloads/apriori"
	"pareto/internal/workloads/graphcomp"
	"pareto/internal/workloads/lz77"
	"pareto/internal/workloads/treemine"
)

// Workload binds a corpus to a distributed analytics algorithm.
type Workload interface {
	// Name identifies the workload in reports.
	Name() string
	// Corpus exposes the data to stratify and place.
	Corpus() pivots.Corpus
	// Scheme is the placement scheme this workload wants.
	Scheme() partitioner.Scheme
	// Profile runs the actual algorithm on a representative sample
	// (record indices) and returns its abstract cost — the
	// progressive-sampling measurement.
	Profile(indices []int) (float64, error)
	// Run executes the distributed job with the given placement on the
	// cluster, returning the execution result and workload-specific
	// quality metrics (candidate counts, compression ratios, …).
	Run(cl *cluster.Cluster, assign *partitioner.Assignment, offset float64) (*cluster.Result, map[string]float64, error)
	// MinPartitionRecords states how many records a partition needs
	// before the workload behaves sanely on it (0 = any size). For
	// scaled-support mining this keeps local thresholds meaningful.
	MinPartitionRecords() float64
}

// minMiningSupportCount is the local support count the mining
// workloads insist on at their smallest partition: below ~8 occurrences
// the scaled threshold admits nearly every co-occurrence as locally
// frequent and the candidate space explodes.
const minMiningSupportCount = 8

// ---------------------------------------------------------------------------
// Text mining (Apriori, Savasere-partitioned) — Fig 3
// ---------------------------------------------------------------------------

// TextMining is the frequent-text-mining workload on a document corpus.
type TextMining struct {
	Docs        *pivots.TextCorpus
	SupportFrac float64
	MaxLen      int
}

// Name implements Workload.
func (w *TextMining) Name() string { return "text-mining" }

// Corpus implements Workload.
func (w *TextMining) Corpus() pivots.Corpus { return w.Docs }

// Scheme implements Workload: mining wants representative partitions.
func (w *TextMining) Scheme() partitioner.Scheme { return partitioner.Representative }

// MinPartitionRecords implements Workload: enough documents that the
// scaled local threshold is at least minMiningSupportCount.
func (w *TextMining) MinPartitionRecords() float64 {
	if w.SupportFrac <= 0 {
		return 0
	}
	return minMiningSupportCount / w.SupportFrac
}

func (w *TextMining) txns(indices []int) []apriori.Transaction {
	out := make([]apriori.Transaction, len(indices))
	for k, i := range indices {
		out[k] = w.Docs.Docs[i].Terms
	}
	return out
}

// Profile implements Workload: local mining cost on the sample.
func (w *TextMining) Profile(indices []int) (float64, error) {
	pr, err := apriori.MineLocal(w.txns(indices), w.SupportFrac, w.MaxLen)
	if err != nil {
		return 0, err
	}
	return pr.Cost, nil
}

// Run implements Workload: phase 1 (local mining) and phase 2 (global
// candidate counting) execute per node on the cluster, separated by
// the candidate-union barrier; times and energies add across phases.
func (w *TextMining) Run(cl *cluster.Cluster, assign *partitioner.Assignment, offset float64) (*cluster.Result, map[string]float64, error) {
	p := assign.P()
	parts := make([][]apriori.Transaction, p)
	for j := 0; j < p; j++ {
		parts[j] = w.txns(assign.Parts[j])
	}
	// Phase 1: local mining.
	locals := make([]*apriori.PartitionResult, p)
	phase1 := make([]func() (cluster.TaskReport, error), p)
	for j := 0; j < p; j++ {
		if len(parts[j]) == 0 {
			continue
		}
		phase1[j] = func() (cluster.TaskReport, error) {
			pr, err := apriori.MineLocal(parts[j], w.SupportFrac, w.MaxLen)
			if err != nil {
				return cluster.TaskReport{}, err
			}
			locals[j] = pr
			return cluster.TaskReport{Cost: pr.Cost}, nil
		}
	}
	res1, err := cl.Run(offset, phase1)
	if err != nil {
		return nil, nil, err
	}
	// Barrier: union locally frequent itemsets.
	var nonNil []*apriori.PartitionResult
	for _, l := range locals {
		if l != nil {
			nonNil = append(nonNil, l)
		}
	}
	cands := apriori.GlobalCandidates(nonNil)
	// Phase 2: global counting.
	phase2 := make([]func() (cluster.TaskReport, error), p)
	falsePos := 0
	counts := make([][]int, p)
	for j := 0; j < p; j++ {
		if len(parts[j]) == 0 {
			continue
		}
		phase2[j] = func() (cluster.TaskReport, error) {
			c, cost := apriori.CountPass(parts[j], cands)
			counts[j] = c
			return cluster.TaskReport{Cost: cost}, nil
		}
	}
	res2, err := cl.Run(offset+res1.Makespan, phase2)
	if err != nil {
		return nil, nil, err
	}
	total := 0
	for _, part := range parts {
		total += len(part)
	}
	final := 0
	for ci := range cands {
		sum := 0
		for j := 0; j < p; j++ {
			if counts[j] != nil {
				sum += counts[j][ci]
			}
		}
		if float64(sum) >= w.SupportFrac*float64(total) {
			final++
		}
	}
	falsePos = len(cands) - final
	combined := res1.Add(res2)
	quality := map[string]float64{
		"candidates":      float64(len(cands)),
		"frequent":        float64(final),
		"false-positives": float64(falsePos),
	}
	return combined, quality, nil
}

// ---------------------------------------------------------------------------
// Tree mining (FREQT, Savasere-partitioned) — Fig 2
// ---------------------------------------------------------------------------

// TreeMining is the frequent-subtree-mining workload on a tree corpus.
type TreeMining struct {
	Trees       *pivots.TreeCorpus
	SupportFrac float64
	MaxNodes    int
}

// Name implements Workload.
func (w *TreeMining) Name() string { return "tree-mining" }

// Corpus implements Workload.
func (w *TreeMining) Corpus() pivots.Corpus { return w.Trees }

// Scheme implements Workload.
func (w *TreeMining) Scheme() partitioner.Scheme { return partitioner.Representative }

// MinPartitionRecords implements Workload (see TextMining).
func (w *TreeMining) MinPartitionRecords() float64 {
	if w.SupportFrac <= 0 {
		return 0
	}
	return minMiningSupportCount / w.SupportFrac
}

func (w *TreeMining) subset(indices []int) []pivots.Tree {
	out := make([]pivots.Tree, len(indices))
	for k, i := range indices {
		out[k] = w.Trees.Trees[i]
	}
	return out
}

// Profile implements Workload.
func (w *TreeMining) Profile(indices []int) (float64, error) {
	pr, err := treemine.MineLocal(w.subset(indices), w.SupportFrac, treemine.Config{MaxNodes: w.MaxNodes})
	if err != nil {
		return 0, err
	}
	return pr.Cost, nil
}

// Run implements Workload: the same two-phase structure as text mining.
func (w *TreeMining) Run(cl *cluster.Cluster, assign *partitioner.Assignment, offset float64) (*cluster.Result, map[string]float64, error) {
	p := assign.P()
	parts := make([][]pivots.Tree, p)
	for j := 0; j < p; j++ {
		parts[j] = w.subset(assign.Parts[j])
	}
	locals := make([]*treemine.PartitionResult, p)
	phase1 := make([]func() (cluster.TaskReport, error), p)
	for j := 0; j < p; j++ {
		if len(parts[j]) == 0 {
			continue
		}
		phase1[j] = func() (cluster.TaskReport, error) {
			pr, err := treemine.MineLocal(parts[j], w.SupportFrac, treemine.Config{MaxNodes: w.MaxNodes})
			if err != nil {
				return cluster.TaskReport{}, err
			}
			locals[j] = pr
			return cluster.TaskReport{Cost: pr.Cost}, nil
		}
	}
	res1, err := cl.Run(offset, phase1)
	if err != nil {
		return nil, nil, err
	}
	cands := treemine.GlobalCandidates(locals)
	counts := make([][]int, p)
	phase2 := make([]func() (cluster.TaskReport, error), p)
	for j := 0; j < p; j++ {
		if len(parts[j]) == 0 {
			continue
		}
		phase2[j] = func() (cluster.TaskReport, error) {
			f, err := treemine.NewForest(parts[j])
			if err != nil {
				return cluster.TaskReport{}, err
			}
			c, cost, err := treemine.CountPass(f, cands)
			counts[j] = c
			return cluster.TaskReport{Cost: cost}, err
		}
	}
	res2, err := cl.Run(offset+res1.Makespan, phase2)
	if err != nil {
		return nil, nil, err
	}
	total := 0
	for _, part := range parts {
		total += len(part)
	}
	final := 0
	for ci := range cands {
		sum := 0
		for j := 0; j < p; j++ {
			if counts[j] != nil {
				sum += counts[j][ci]
			}
		}
		if float64(sum) >= w.SupportFrac*float64(total) {
			final++
		}
	}
	combined := res1.Add(res2)
	quality := map[string]float64{
		"candidates":      float64(len(cands)),
		"frequent":        float64(final),
		"false-positives": float64(len(cands) - final),
	}
	return combined, quality, nil
}

// ---------------------------------------------------------------------------
// Webgraph compression — Fig 4
// ---------------------------------------------------------------------------

// GraphCompression compresses each partition's adjacency lists with
// the webgraph codec.
type GraphCompression struct {
	Graph  *pivots.GraphCorpus
	Window int
	// Residuals selects the gap code (webgraph defaults to ζ₃; the
	// suite follows).
	Residuals graphcomp.Code
}

// codecConfig assembles the codec configuration (ζ codes use the
// codec's default shrinking parameter).
func (w *GraphCompression) codecConfig() graphcomp.Config {
	return graphcomp.Config{Window: w.Window, Residuals: w.Residuals}
}

// Name implements Workload.
func (w *GraphCompression) Name() string { return "graph-compression" }

// Corpus implements Workload.
func (w *GraphCompression) Corpus() pivots.Corpus { return w.Graph }

// Scheme implements Workload: compression wants low-entropy partitions.
func (w *GraphCompression) Scheme() partitioner.Scheme { return partitioner.SimilarTogether }

// MinPartitionRecords implements Workload: compression accepts any size.
func (w *GraphCompression) MinPartitionRecords() float64 { return 0 }

func (w *GraphCompression) lists(indices []int) ([]uint32, [][]uint32) {
	ids := make([]uint32, len(indices))
	lists := make([][]uint32, len(indices))
	for k, i := range indices {
		ids[k] = uint32(i)
		lists[k] = w.Graph.G.Adj[i]
	}
	return ids, lists
}

// Profile implements Workload.
func (w *GraphCompression) Profile(indices []int) (float64, error) {
	ids, lists := w.lists(indices)
	enc, err := graphcomp.Encode(ids, lists, w.codecConfig())
	if err != nil {
		return 0, err
	}
	return enc.Cost, nil
}

// Run implements Workload: one compression pass per node; quality is
// the aggregate compression ratio.
func (w *GraphCompression) Run(cl *cluster.Cluster, assign *partitioner.Assignment, offset float64) (*cluster.Result, map[string]float64, error) {
	p := assign.P()
	rawBits := make([]int, p)
	compBits := make([]int, p)
	tasks := make([]func() (cluster.TaskReport, error), p)
	for j := 0; j < p; j++ {
		indices := assign.Parts[j]
		if len(indices) == 0 {
			continue
		}
		tasks[j] = func() (cluster.TaskReport, error) {
			ids, lists := w.lists(indices)
			enc, err := graphcomp.Encode(ids, lists, w.codecConfig())
			if err != nil {
				return cluster.TaskReport{}, err
			}
			rawBits[j] = graphcomp.RawBits(ids, lists)
			compBits[j] = enc.BitLen
			return cluster.TaskReport{Cost: enc.Cost}, nil
		}
	}
	res, err := cl.Run(offset, tasks)
	if err != nil {
		return nil, nil, err
	}
	var raw, comp float64
	for j := 0; j < p; j++ {
		raw += float64(rawBits[j])
		comp += float64(compBits[j])
	}
	ratio := 0.0
	if comp > 0 {
		ratio = raw / comp
	}
	return res, map[string]float64{"compression-ratio": ratio}, nil
}

// ---------------------------------------------------------------------------
// LZ77 compression — Tables II and III
// ---------------------------------------------------------------------------

// LZ77Compression compresses each partition's serialized byte stream.
//
// The paper observes (Tables II/III) that LZ77 is so fast its runs are
// dominated by speed-independent work — reading the partition off
// storage — so CPU-heterogeneity-aware sizing gains little. The
// adapter reproduces that regime: each node's demand is a CPU cost
// (divided by lz77CPUScale, since LZ77 retires far more bytes per cycle
// than pattern mining) plus fixed I/O seconds at lz77IOBytesPerSec,
// identical across node types.
type LZ77Compression struct {
	Data pivots.Corpus
	Cfg  lz77.Config
}

// The LZ77 regime: chosen so the fixed I/O share and the CPU share of a
// partition's runtime are comparable, reproducing the muted (but not
// absent) heterogeneity gains of Tables II/III.
const (
	// lz77IOBytesPerSec is the speed-independent read rate.
	lz77IOBytesPerSec = 3e6
	// lz77CPUScale divides the codec's abstract cost to reflect LZ77's
	// high per-byte throughput.
	lz77CPUScale = 4
)

// Name implements Workload.
func (w *LZ77Compression) Name() string { return "lz77-compression" }

// Corpus implements Workload.
func (w *LZ77Compression) Corpus() pivots.Corpus { return w.Data }

// Scheme implements Workload.
func (w *LZ77Compression) Scheme() partitioner.Scheme { return partitioner.SimilarTogether }

// MinPartitionRecords implements Workload: compression accepts any size.
func (w *LZ77Compression) MinPartitionRecords() float64 { return 0 }

func (w *LZ77Compression) bytes(indices []int) []byte {
	var buf []byte
	for _, i := range indices {
		buf = w.Data.AppendRecord(buf, i)
	}
	return buf
}

// Profile implements Workload: the CPU-side cost only. The fixed I/O
// component is invisible to the speed-scaled profiler, so the learned
// models overstate heterogeneity — exactly why the measured LZ77 gains
// stay muted, as in the paper.
func (w *LZ77Compression) Profile(indices []int) (float64, error) {
	enc, err := lz77.Compress(w.bytes(indices), w.Cfg)
	if err != nil {
		return 0, err
	}
	return enc.Cost / lz77CPUScale, nil
}

// Run implements Workload.
func (w *LZ77Compression) Run(cl *cluster.Cluster, assign *partitioner.Assignment, offset float64) (*cluster.Result, map[string]float64, error) {
	p := assign.P()
	rawLen := make([]int, p)
	compLen := make([]int, p)
	tasks := make([]func() (cluster.TaskReport, error), p)
	for j := 0; j < p; j++ {
		indices := assign.Parts[j]
		if len(indices) == 0 {
			continue
		}
		tasks[j] = func() (cluster.TaskReport, error) {
			data := w.bytes(indices)
			enc, err := lz77.Compress(data, w.Cfg)
			if err != nil {
				return cluster.TaskReport{}, err
			}
			rawLen[j] = len(data)
			compLen[j] = len(enc.Data)
			return cluster.TaskReport{
				Cost:         enc.Cost / lz77CPUScale,
				FixedSeconds: float64(len(data)) / lz77IOBytesPerSec,
			}, nil
		}
	}
	res, err := cl.Run(offset, tasks)
	if err != nil {
		return nil, nil, err
	}
	var raw, comp float64
	for j := 0; j < p; j++ {
		raw += float64(rawLen[j])
		comp += float64(compLen[j])
	}
	ratio := 0.0
	if comp > 0 {
		ratio = raw / comp
	}
	return res, map[string]float64{"compression-ratio": ratio}, nil
}

// errNoWorkload guards experiment entry points.
var errNoWorkload = errors.New("bench: nil workload")

// ensure interface conformance.
var (
	_ Workload = (*TextMining)(nil)
	_ Workload = (*TreeMining)(nil)
	_ Workload = (*GraphCompression)(nil)
	_ Workload = (*LZ77Compression)(nil)
)
