// Package bench is the experiment harness: it binds the corpora to the
// four analytics workloads, runs the paper's three partitioning
// strategies on the simulated heterogeneous cluster, and regenerates
// every table and figure of the evaluation (§V). See DESIGN.md's
// experiment index for the mapping.
//
// Each workload writes its per-partition job once. Run executes it on
// every node's partition; Profile executes the same function on the
// profiler's representative sample (for the two miners, phase 1), so
// Component I measures the job the executor runs (§III-A).
package bench

import (
	"errors"
	"io"

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
	// Profile runs the workload's per-partition job on a representative
	// sample (record indices) and returns its abstract cost — the
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

// savasere runs a Savasere-partitioned mining job (§V-B) on the
// cluster. Each node's phase-1 task builds its partition's view (D) —
// the numbered transactions, the forest — and runs local on it; the
// barrier unions the local results (L) into global candidates (C);
// phase 2 runs count on the same view on every partition from the
// moment phase 1's last node finishes, so times and energies add
// across phases. A candidate is frequent when its summed count reaches
// support × the records placed.
func savasere[D, L, C any](cl *cluster.Cluster, assign *partitioner.Assignment, offset, support float64,
	view func(indices []int) (D, error),
	local func(D) (L, float64, error),
	union func([]L) []C,
	count func(D, []C) ([]int, float64, error),
) (*cluster.Result, map[string]float64, error) {
	data := make([]D, len(assign.Parts))
	total := 0
	for _, indices := range assign.Parts {
		total += len(indices)
	}
	locals := make([]L, len(data))
	res1, err := cl.Run(offset, assign.Parts, func(j int, indices []int) (cluster.TaskReport, error) {
		var err error
		if data[j], err = view(indices); err != nil {
			return cluster.TaskReport{}, err
		}
		l, cost, err := local(data[j])
		locals[j] = l
		return cluster.TaskReport{Cost: cost}, err
	})
	if err != nil {
		return nil, nil, err
	}
	cands := union(locals)
	counts := make([][]int, len(data))
	res2, err := cl.Run(offset+res1.Makespan, assign.Parts, func(j int, _ []int) (cluster.TaskReport, error) {
		c, cost, err := count(data[j], cands)
		counts[j] = c
		return cluster.TaskReport{Cost: cost}, err
	})
	if err != nil {
		return nil, nil, err
	}
	frequent := 0
	for ci := range cands {
		sum := 0
		for _, c := range counts {
			if c != nil {
				sum += c[ci]
			}
		}
		if float64(sum) >= support*float64(total) {
			frequent++
		}
	}
	return res1.Add(res2), map[string]float64{
		"candidates":      float64(len(cands)),
		"frequent":        float64(frequent),
		"false-positives": float64(len(cands) - frequent),
	}, nil
}

// packed is one partition's compression outcome: the task's demand and
// the partition's size before and after, in the codec's unit.
type packed struct {
	cluster.TaskReport
	raw, out int
}

// compress runs a single-phase compression job on the cluster: node j
// runs pack on partition j. Quality is the aggregate compression ratio.
func compress(cl *cluster.Cluster, assign *partitioner.Assignment, offset float64, pack func(indices []int) (packed, error)) (*cluster.Result, map[string]float64, error) {
	outs := make([]packed, len(assign.Parts))
	res, err := cl.Run(offset, assign.Parts, func(j int, indices []int) (cluster.TaskReport, error) {
		var err error
		outs[j], err = pack(indices)
		return outs[j].TaskReport, err
	})
	if err != nil {
		return nil, nil, err
	}
	var raw, out float64
	for _, o := range outs {
		raw += float64(o.raw)
		out += float64(o.out)
	}
	ratio := 0.0
	if out > 0 {
		ratio = raw / out
	}
	return res, map[string]float64{"compression-ratio": ratio}, nil
}

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

// partition is the view both phases read: the partition's documents,
// numbered once.
func (w *TextMining) partition(indices []int) (*apriori.Partition, error) {
	txns := make([]apriori.Transaction, len(indices))
	for k, i := range indices {
		txns[k] = w.Docs.Docs[i].Terms
	}
	return apriori.NewPartition(txns), nil
}

// mine is phase 1 on one partition: Apriori at the support fraction
// scaled to the partition's size.
func (w *TextMining) mine(p *apriori.Partition) (*apriori.PartitionResult, float64, error) {
	pr, err := apriori.MineLocal(p, w.SupportFrac, w.MaxLen)
	if err != nil {
		return nil, 0, err
	}
	return pr, pr.Cost, nil
}

// Profile implements Workload: phase 1 on the sample.
func (w *TextMining) Profile(indices []int) (float64, error) {
	p, err := w.partition(indices)
	if err != nil {
		return 0, err
	}
	_, cost, err := w.mine(p)
	return cost, err
}

// Run implements Workload: the two Savasere phases, local Apriori then
// the global candidate count.
func (w *TextMining) Run(cl *cluster.Cluster, assign *partitioner.Assignment, offset float64) (*cluster.Result, map[string]float64, error) {
	return savasere(cl, assign, offset, w.SupportFrac, w.partition, w.mine, apriori.GlobalCandidates,
		func(p *apriori.Partition, cands [][]uint32) ([]int, float64, error) {
			counts, cost := apriori.CountPass(p, cands)
			return counts, cost, nil
		})
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

// forest is the view both phases read: the partition's trees, indexed
// once.
func (w *TreeMining) forest(indices []int) (*treemine.Forest, error) {
	trees := make([]pivots.Tree, len(indices))
	for k, i := range indices {
		trees[k] = w.Trees.Trees[i]
	}
	return treemine.NewForest(trees)
}

// mine is phase 1 on one partition: FREQT at the support fraction
// scaled to the partition's size.
func (w *TreeMining) mine(f *treemine.Forest) (*treemine.PartitionResult, float64, error) {
	pr, err := treemine.MineLocal(f, w.SupportFrac, treemine.Config{MaxNodes: w.MaxNodes})
	if err != nil {
		return nil, 0, err
	}
	return pr, pr.Cost, nil
}

// Profile implements Workload: phase 1 on the sample.
func (w *TreeMining) Profile(indices []int) (float64, error) {
	f, err := w.forest(indices)
	if err != nil {
		return 0, err
	}
	_, cost, err := w.mine(f)
	return cost, err
}

// Run implements Workload: the same two phases as text mining.
func (w *TreeMining) Run(cl *cluster.Cluster, assign *partitioner.Assignment, offset float64) (*cluster.Result, map[string]float64, error) {
	return savasere(cl, assign, offset, w.SupportFrac, w.forest, w.mine, treemine.GlobalCandidates, treemine.CountPass)
}

// ---------------------------------------------------------------------------
// Webgraph compression — Fig 4
// ---------------------------------------------------------------------------

// GraphCompression compresses each partition's adjacency lists with
// the webgraph codec.
type GraphCompression struct {
	Graph *pivots.GraphCorpus
}

// graphWindow is the codec's reference window: webgraph's usual small
// window of previously encoded lists a list may copy from.
const graphWindow = 7

// Name implements Workload.
func (w *GraphCompression) Name() string { return "graph-compression" }

// Corpus implements Workload.
func (w *GraphCompression) Corpus() pivots.Corpus { return w.Graph }

// Scheme implements Workload: compression wants low-entropy partitions.
func (w *GraphCompression) Scheme() partitioner.Scheme { return partitioner.SimilarTogether }

// MinPartitionRecords implements Workload: compression accepts any size.
func (w *GraphCompression) MinPartitionRecords() float64 { return 0 }

// encode is the job on one partition: the webgraph codec over its
// adjacency lists in placement order; sizes are in bits.
func (w *GraphCompression) encode(indices []int) (packed, error) {
	ids := make([]uint32, len(indices))
	lists := make([][]uint32, len(indices))
	for k, i := range indices {
		ids[k] = uint32(i)
		lists[k] = w.Graph.G.Adj[i]
	}
	enc, err := graphcomp.Encode(ids, lists, graphcomp.Config{Window: graphWindow})
	if err != nil {
		return packed{}, err
	}
	return packed{cluster.TaskReport{Cost: enc.Cost}, graphcomp.RawBits(ids, lists), enc.BitLen}, nil
}

// Profile implements Workload: the job on the sample.
func (w *GraphCompression) Profile(indices []int) (float64, error) {
	p, err := w.encode(indices)
	return p.Cost, err
}

// Run implements Workload: one compression pass per node; quality is
// the aggregate compression ratio.
func (w *GraphCompression) Run(cl *cluster.Cluster, assign *partitioner.Assignment, offset float64) (*cluster.Result, map[string]float64, error) {
	return compress(cl, assign, offset, w.encode)
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

// pack is the job on one partition: LZ77 over its serialized records,
// plus the speed-independent read of those bytes; sizes are in bytes.
// The records stream through the encoder one at a time and only the
// compressed length is kept, so a partition costs the encoder's window,
// not its size.
func (w *LZ77Compression) pack(indices []int) (packed, error) {
	enc, err := lz77.NewWriter(io.Discard, w.Cfg)
	if err != nil {
		return packed{}, err
	}
	var rec []byte
	for _, i := range indices {
		rec = w.Data.AppendRecord(rec[:0], i)
		if _, err := enc.Write(rec); err != nil {
			return packed{}, err
		}
	}
	st, err := enc.Close()
	if err != nil {
		return packed{}, err
	}
	return packed{cluster.TaskReport{
		Cost:         st.Cost / lz77CPUScale,
		FixedSeconds: float64(st.RawLen) / lz77IOBytesPerSec,
	}, st.RawLen, st.OutLen}, nil
}

// Profile implements Workload: the job on the sample, CPU side only.
// The learned models therefore overstate heterogeneity — exactly why
// the measured LZ77 gains stay muted, as in the paper.
func (w *LZ77Compression) Profile(indices []int) (float64, error) {
	p, err := w.pack(indices)
	return p.Cost, err // FixedSeconds dropped: the profile's time model scales all of a cost by node speed.
}

// Run implements Workload.
func (w *LZ77Compression) Run(cl *cluster.Cluster, assign *partitioner.Assignment, offset float64) (*cluster.Result, map[string]float64, error) {
	return compress(cl, assign, offset, w.pack)
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
