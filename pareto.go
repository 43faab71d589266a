// Package pareto is a heterogeneity- and green-energy-aware data
// partitioning framework for distributed analytics, reproducing
// Chakrabarti, Parthasarathy & Stewart, "A Pareto Framework for Data
// Analytics on Heterogeneous Systems" (ICPP 2017).
//
// Given a dataset (trees, graphs or text), a heterogeneous cluster
// model, and an analytics workload, the framework
//
//  1. stratifies the data by content (min-wise independent linear
//     permutation sketches + compositeKModes clustering),
//  2. learns a per-node execution-time model by running the actual
//     workload on small representative progressive samples,
//  3. estimates each node's dirty-power rate from solar traces,
//  4. sizes partitions by solving a scalarized two-objective linear
//     program — minimize α·makespan + (1−α)·dirty energy — whose
//     solutions are Pareto-optimal, and
//  5. places records into partitions either as stratified
//     representative samples (for pattern mining) or grouped by
//     similarity (for compression), on memory, disk, or a
//     Redis-compatible store served by this module.
//
// The quick path:
//
//	fw, err := pareto.New(corpus, cl)
//	plan, err := fw.Plan(pareto.HetAware, profileFn)
//	result, err := fw.Execute(plan, runFn)
//
// See examples/ for complete programs and DESIGN.md for the paper
// mapping.
package pareto

import (
	"errors"

	"pareto/internal/cluster"
	"pareto/internal/core"
	"pareto/internal/energy"
	"pareto/internal/frontier"
	"pareto/internal/opt"
	"pareto/internal/partitioner"
	"pareto/internal/pivots"
	"pareto/internal/strata"
)

// Re-exported data-model types. Construct corpora with NewTreeCorpus,
// NewGraphCorpus and NewTextCorpus.
type (
	// Corpus is the domain-independent dataset view.
	Corpus = pivots.Corpus
	// Tree is a rooted labeled tree record.
	Tree = pivots.Tree
	// Graph is an adjacency-list directed graph.
	Graph = pivots.Graph
	// Doc is a bag-of-terms text document.
	Doc = pivots.Doc
	// TreeCorpus, GraphCorpus and TextCorpus are the concrete corpora.
	TreeCorpus  = pivots.TreeCorpus
	GraphCorpus = pivots.GraphCorpus
	TextCorpus  = pivots.TextCorpus
)

// Corpus constructors.
var (
	// NewTreeCorpus validates trees and precomputes LCA pivot sets.
	NewTreeCorpus = pivots.NewTreeCorpus
	// NewGraphCorpus validates a graph and uses adjacency pivot sets.
	NewGraphCorpus = pivots.NewGraphCorpus
	// NewTextCorpus validates documents over a vocabulary.
	NewTextCorpus = pivots.NewTextCorpus
)

// Cluster modeling re-exports.
type (
	// Cluster is the heterogeneous execution environment.
	Cluster = cluster.Cluster
	// NodeSpec describes one node (speed, power, solar trace).
	NodeSpec = cluster.NodeSpec
	// Panel is a PV installation spec.
	Panel = energy.Panel
	// NodeModel is a learned (time model, dirty rate) pair.
	NodeModel = opt.NodeModel
)

// Cluster constructors.
var (
	// PaperCluster cycles the paper's four machine types and four
	// datacenter sites across p nodes.
	PaperCluster = cluster.PaperCluster
	// HomogeneousCluster builds p identical fastest-type nodes.
	HomogeneousCluster = cluster.HomogeneousCluster
	// DefaultPanel is a ~450 W-peak PV installation.
	DefaultPanel = energy.DefaultPanel
)

// Strategy selects the paper's partition-sizing policy.
type Strategy = core.Strategy

// The three evaluated strategies.
const (
	// Stratified is the payload-aware, hardware-oblivious baseline.
	Stratified = core.Stratified
	// HetAware minimizes the makespan (α = 1).
	HetAware = core.HetAware
	// HetEnergyAware trades makespan for dirty energy (α < 1).
	HetEnergyAware = core.HetEnergyAware
)

// Pipeline configuration and outputs.
type (
	// Config is the full pipeline configuration.
	Config = core.Config
	// Plan is a complete partitioning decision.
	Plan = core.Plan
	// ProfileFunc measures the workload on a representative sample.
	ProfileFunc = core.ProfileFunc
	// RunPartition executes one node's partition.
	RunPartition = core.RunPartition
	// Result carries per-node simulated times and energies.
	Result = cluster.Result
	// Scheme selects record placement within partition sizes.
	Scheme = partitioner.Scheme
	// Assignment maps partitions to record indices.
	Assignment = partitioner.Assignment
	// Store persists placed partitions.
	Store = partitioner.Store
)

// Placement schemes.
const (
	// Representative makes every partition a stratified sample.
	Representative = partitioner.Representative
	// SimilarTogether groups similar records (low-entropy partitions).
	SimilarTogether = partitioner.SimilarTogether
)

// Storage backends.
var (
	// NewMemoryStore keeps partitions in process memory.
	NewMemoryStore = partitioner.NewMemoryStore
	// NewDiskStore writes one self-delimiting file per partition.
	NewDiskStore = partitioner.NewDiskStore
	// NewKVStore places partitions as lists on kvstore instances.
	NewKVStore = partitioner.NewKVStoreKV
	// Place ships every partition of an assignment to a store.
	Place = partitioner.Place
)

// BuildPlan runs the full pipeline with explicit configuration; the
// Framework type below covers the common cases.
var BuildPlan = core.BuildPlan

// Execute runs a planned job on the cluster.
var Execute = core.Execute

// FrontierPoint is one point of a time/dirty-energy Pareto frontier.
type FrontierPoint = opt.FrontierPoint

// Frontier samples the Pareto frontier at the given α values and returns
// the points in canonical form: ascending α, adjacent duplicates (same
// makespan and dirty energy within 1e-9 relative) collapsed to their
// lowest-α representative, whatever order alphas came in. Callers that
// need one point per input α should optimize per value instead. It is
// FrontierSweep without the solve statistics and the dominance flags.
func Frontier(nodes []NodeModel, total int, alphas []float64) ([]FrontierPoint, error) {
	if len(alphas) == 0 {
		return nil, errors.New("pareto: empty alpha sweep")
	}
	res, err := frontier.Sweep(nodes, total, frontier.Config{Alphas: alphas})
	return frontierPoints(res), err
}

// ExactFrontier enumerates every frontier vertex (up to tol in objective
// space, default 1e-6) by α bisection, in the same canonical form —
// unlike Frontier, which samples a fixed α ladder and can miss segments.
// If the bisection exhausts its depth budget the points found so far are
// returned with an error wrapping opt.ErrTruncated. It is FrontierExact
// without the solve statistics and the dominance flags.
func ExactFrontier(nodes []NodeModel, total int, tol float64) ([]FrontierPoint, error) {
	res, err := frontier.Exact(nodes, total, frontier.Config{Tol: tol})
	return frontierPoints(res), err
}

// frontierPoints strips an enumeration down to its canonical 2-D point
// list (dominated samples included); nil for a failed enumeration.
func frontierPoints(res *FrontierResult) []FrontierPoint {
	if res == nil {
		return nil
	}
	pts := make([]FrontierPoint, len(res.Points))
	for i, p := range res.Points {
		pts[i] = p.FrontierPoint
	}
	return pts
}

// Advanced modeler entry points.
var (
	// SelectNodes chooses which p nodes of a larger pool host
	// partitions (the geo-distributed deployment of paper §II).
	SelectNodes = opt.SelectNodes
	// DefaultAlphaSweep is the α ladder used by the frontier figures.
	DefaultAlphaSweep = opt.DefaultAlphaSweep
)

// Warm-started frontier enumeration (internal/frontier): sweeps and
// exact bisections that reuse one simplex basis across α values,
// produce bit-identical results to solving every α cold, and can be
// served over HTTP. Frontier and ExactFrontier above run on it.
type (
	// FrontierConfig configures a warm-started enumeration (α samples,
	// workers, telemetry).
	FrontierConfig = frontier.Config
	// FrontierResult carries the enumerated points plus solve stats.
	FrontierResult = frontier.Result
	// FrontierService serves enumerations over HTTP at /frontier.
	FrontierService = frontier.Service
)

var (
	// FrontierSweep enumerates the frontier at sampled α values with
	// warm-started solves, in parallel.
	FrontierSweep = frontier.Sweep
	// FrontierExact enumerates every breakpoint by warm-started
	// bisection.
	FrontierExact = frontier.Exact
	// FrontierFromPlan enumerates over a built plan's profiled models.
	FrontierFromPlan = core.FrontierFromPlan
	// NewFrontierService wraps a model source for HTTP serving; mount
	// it with MountFrontier on a telemetry mux.
	NewFrontierService = frontier.NewService
	// MountFrontier registers a frontier service at /frontier.
	MountFrontier = frontier.Mount
)

// Framework bundles a corpus and a cluster with sensible defaults.
type Framework struct {
	corpus Corpus
	clus   *Cluster
	// Alpha is the Het-Energy-Aware scalarization weight (default 0.995).
	Alpha float64
	// Scheme is the placement scheme (default Representative).
	Scheme Scheme
	// Stratifier overrides stratification knobs when K > 0.
	Stratifier strata.StratifierConfig
	// TraceOffset is the job start within the solar traces (seconds).
	TraceOffset float64
}

// New creates a Framework over a corpus and cluster.
func New(c Corpus, cl *Cluster) (*Framework, error) {
	if c == nil || c.Len() == 0 {
		return nil, errors.New("pareto: empty corpus")
	}
	if cl == nil || cl.P() == 0 {
		return nil, errors.New("pareto: empty cluster")
	}
	return &Framework{
		corpus: c,
		clus:   cl,
		Alpha:  0.995,
		Scheme: Representative,
	}, nil
}

// Corpus returns the framework's dataset.
func (f *Framework) Corpus() Corpus { return f.corpus }

// Cluster returns the framework's cluster model.
func (f *Framework) Cluster() *Cluster { return f.clus }

// Plan builds a partitioning plan under the given strategy. profile
// runs the actual workload on representative samples and may be nil
// only for the Stratified baseline.
func (f *Framework) Plan(s Strategy, profile ProfileFunc) (*Plan, error) {
	cfg := Config{
		Strategy:    s,
		Alpha:       f.Alpha,
		Scheme:      f.Scheme,
		Stratifier:  f.Stratifier,
		TraceOffset: f.TraceOffset,
	}
	return core.BuildPlan(f.corpus, f.clus, profile, cfg)
}

// Execute runs the planned job: node j processes partition j via run.
func (f *Framework) Execute(plan *Plan, run RunPartition) (*Result, error) {
	return core.Execute(f.clus, plan, run, f.TraceOffset)
}

// PlaceTo ships the plan's partitions to a storage backend.
func (f *Framework) PlaceTo(plan *Plan, st Store) error {
	if plan == nil || plan.Assign == nil {
		return errors.New("pareto: nil plan")
	}
	return partitioner.Place(f.corpus, plan.Assign, st)
}
