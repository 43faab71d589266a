// Command partition runs the full pipeline on a dataset file produced
// by datagen: stratify, profile the chosen workload with progressive
// samples, solve the Pareto LP for the chosen strategy, and place the
// partitions onto disk or onto running kvstored instances.
//
// Usage:
//
//	partition -in data/rcv1.docs -kind text -strategy het-aware -p 8 -outdir parts/
//	partition -in data/uk.graph -kind graph -strategy het-energy-aware -alpha 0.99 \
//	          -kv 127.0.0.1:6380,127.0.0.1:6381
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pareto/internal/bench"
	"pareto/internal/cluster"
	"pareto/internal/core"
	"pareto/internal/datasets"
	"pareto/internal/energy"
	"pareto/internal/kvstore"
	"pareto/internal/partitioner"
	"pareto/internal/pivots"
)

func main() {
	var (
		in       = flag.String("in", "", "input dataset file")
		format   = flag.String("format", "binary", "input format: binary (datagen), edgelist (SNAP/LAW), transactions (FIMI)")
		kind     = flag.String("kind", "", "record kind: tree | graph | text (implied by -format for edgelist/transactions)")
		strategy = flag.String("strategy", "het-aware", "stratified | het-aware | het-energy-aware")
		alpha    = flag.Float64("alpha", 0.995, "scalarization weight for het-energy-aware")
		p        = flag.Int("p", 8, "number of partitions / nodes")
		scheme   = flag.String("scheme", "", "placement: representative | similar (default per kind)")
		outdir   = flag.String("outdir", "", "place partitions as files under this directory")
		kvAddrs  = flag.String("kv", "", "comma-separated kvstored addresses to place onto")
		support  = flag.Float64("support", 0.1, "mining support fraction used for profiling")
		offset   = flag.Float64("trace-offset", 12*3600, "job start within solar traces (s)")
		planOut  = flag.String("plan-out", "", "write the plan summary as JSON to this file")
	)
	flag.Parse()
	switch *format {
	case "edgelist":
		*kind = "graph"
	case "transactions":
		*kind = "text"
	}
	if *in == "" || *kind == "" {
		flag.Usage()
		os.Exit(2)
	}
	buf, err := os.ReadFile(*in)
	if err != nil {
		fail(err)
	}
	corpus, profile, err := loadCorpus(*format, *kind, buf, *support)
	if err != nil {
		fail(err)
	}
	cl, err := cluster.PaperCluster(*p, energy.DefaultPanel(), 172, 72)
	if err != nil {
		fail(err)
	}
	cfg := core.Config{Alpha: *alpha, TraceOffset: *offset}
	switch *scheme {
	case "representative":
		cfg.Scheme = partitioner.Representative
	case "similar":
		cfg.Scheme = partitioner.SimilarTogether
	case "":
		if *kind == "graph" {
			cfg.Scheme = partitioner.SimilarTogether
		}
	default:
		fail(fmt.Errorf("unknown scheme %q", *scheme))
	}

	switch *strategy {
	case "stratified":
		cfg.Strategy = core.Stratified
		profile = nil
	case "het-aware":
		cfg.Strategy = core.HetAware
	case "het-energy-aware":
		cfg.Strategy = core.HetEnergyAware
	default:
		fail(fmt.Errorf("unknown strategy %q", *strategy))
	}

	start := time.Now()
	plan, err := core.BuildPlan(corpus, cl, profile, cfg)
	if err != nil {
		fail(err)
	}
	fmt.Printf("planned %d records into %d partitions in %.2fs (strategy %v, scheme %v)\n",
		corpus.Len(), *p, time.Since(start).Seconds(), plan.Strategy, plan.Scheme)
	fmt.Printf("partition sizes: %v\n", plan.Assign.Sizes())
	if plan.Optimized != nil {
		fmt.Printf("predicted makespan %.3fs, predicted dirty energy %.1f J\n",
			plan.Optimized.Makespan, plan.Optimized.DirtyEnergy)
	}
	if *planOut != "" {
		sum, err := plan.Summary()
		if err != nil {
			fail(err)
		}
		f, err := os.Create(*planOut)
		if err != nil {
			fail(err)
		}
		if err := sum.WriteJSON(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("plan summary written to %s\n", *planOut)
	}

	switch {
	case *outdir != "":
		st, err := partitioner.NewDiskStore(*outdir)
		if err != nil {
			fail(err)
		}
		if err := partitioner.Place(corpus, plan.Assign, st); err != nil {
			fail(err)
		}
		fmt.Printf("placed partitions under %s\n", *outdir)
	case *kvAddrs != "":
		var clients []kvstore.KV
		for _, addr := range strings.Split(*kvAddrs, ",") {
			c, err := kvstore.Dial(strings.TrimSpace(addr), 5*time.Second)
			if err != nil {
				fail(err)
			}
			defer c.Close()
			clients = append(clients, c)
		}
		st, err := partitioner.NewKVStoreKV(clients, 128, "pareto")
		if err != nil {
			fail(err)
		}
		if err := partitioner.Place(corpus, plan.Assign, st); err != nil {
			fail(err)
		}
		fmt.Printf("placed partitions onto %d store instance(s)\n", len(clients))
	default:
		fmt.Println("dry run (no -outdir or -kv given)")
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "partition: %v\n", err)
	os.Exit(1)
}

// loadCorpus decodes buf (datagen records of the given kind, a
// SNAP/LAW edge list or a FIMI transaction file) and returns the corpus
// plus the kind's workload profile (the actual algorithm run on
// representative samples).
func loadCorpus(format, kind string, buf []byte, support float64) (pivots.Corpus, core.ProfileFunc, error) {
	var (
		trees []pivots.Tree
		graph *pivots.Graph
		docs  []pivots.Doc
		vocab int
		err   error
	)
	switch {
	case format == "edgelist":
		graph, err = datasets.LoadEdgeList(bytes.NewReader(buf))
	case format == "transactions":
		docs, vocab, err = datasets.LoadTransactions(bytes.NewReader(buf))
	case format != "binary":
		return nil, nil, fmt.Errorf("unknown format %q (want binary, edgelist or transactions)", format)
	case kind == "tree":
		trees, err = pivots.DecodeTreeRecords(buf)
	case kind == "graph":
		graph, err = pivots.DecodeGraphRecords(buf)
	case kind == "text":
		docs, vocab, err = pivots.DecodeTextRecords(buf)
	default:
		return nil, nil, fmt.Errorf("unknown kind %q (want tree, graph or text)", kind)
	}
	if err != nil {
		return nil, nil, err
	}
	switch kind {
	case "tree":
		c, err := pivots.NewTreeCorpus(trees)
		return c, (&bench.TreeMining{Trees: c, SupportFrac: support, MaxNodes: 4}).Profile, err
	case "graph":
		c, err := pivots.NewGraphCorpus(graph)
		return c, (&bench.GraphCompression{Graph: c}).Profile, err
	default:
		c, err := pivots.NewTextCorpus(docs, vocab)
		return c, (&bench.TextMining{Docs: c, SupportFrac: support, MaxLen: 3}).Profile, err
	}
}
