package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"pareto/internal/cluster"
	"pareto/internal/datasets"
	"pareto/internal/partitioner"
	"pareto/internal/pivots"
	"pareto/internal/workloads/lz77"
)

// tinyWorkloads builds the four workloads on tiny seeded corpora.
func tinyWorkloads(t *testing.T) []Workload {
	t.Helper()
	textCfg := datasets.RCV1Like(0.0003)
	docs, _, err := datasets.GenerateText(textCfg)
	if err != nil {
		t.Fatal(err)
	}
	text, err := pivots.NewTextCorpus(docs, textCfg.VocabSize)
	if err != nil {
		t.Fatal(err)
	}
	trees, _, err := datasets.GenerateTrees(datasets.SwissProtLike(0.0005))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := pivots.NewTreeCorpus(trees)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := datasets.GenerateGraph(datasets.UKLike(0.0001))
	if err != nil {
		t.Fatal(err)
	}
	graph, err := pivots.NewGraphCorpus(g)
	if err != nil {
		t.Fatal(err)
	}
	return []Workload{
		&TextMining{Docs: text, SupportFrac: 0.2, MaxLen: 2},
		&TreeMining{Trees: tree, SupportFrac: 0.2, MaxNodes: 3},
		&GraphCompression{Graph: graph},
		&LZ77Compression{Data: graph, Cfg: lz77.Config{}},
	}
}

// unevenAssignment gives node 0 three records in four, leaves node 1
// empty and gives node 2 the rest.
func unevenAssignment(n int) *partitioner.Assignment {
	parts := make([][]int, 3)
	for i := 0; i < n; i++ {
		if i%4 == 3 {
			parts[2] = append(parts[2], i)
		} else {
			parts[0] = append(parts[0], i)
		}
	}
	return &partitioner.Assignment{Parts: parts}
}

// fingerprint renders every deterministic output of one run as bits:
// each cluster.Result field, the quality map in
// key order, and a profile cost.
func fingerprint(res *cluster.Result, quality map[string]float64, profile float64) []string {
	bits := func(x float64) string { return fmt.Sprintf("%#016x", math.Float64bits(x)) }
	out := []string{
		"makespan " + bits(res.Makespan),
		"dirty " + bits(res.DirtyEnergy),
	}
	for i := range res.NodeTimes {
		out = append(out, fmt.Sprintf("node %d time %s dirty %s", i, bits(res.NodeTimes[i]), bits(res.NodeDirty[i])))
	}
	keys := make([]string, 0, len(quality))
	for k := range quality {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, k+" "+bits(quality[k]))
	}
	return append(out, "profile "+bits(profile))
}

// recordedOffset starts each job 5 ms before noon, so a mining job's
// phase 1 straddles the trace step that begins at noon and its phase 2
// books the noon step's green power only if it starts where phase 1
// ended.
const recordedOffset = 12*3600 - 0.005

// recordedBits is each workload's fingerprint on the uneven three-way
// assignment at recordedOffset, with the profile cost of records 0–9,
// recorded while each workload still wrote out its own Run loop.
// graph-compression's ratio is re-recorded for ζ₃ residual gaps, the
// codec's only code; Encode's cost does not depend on it.
var recordedBits = map[string][]string{
	"text-mining": {
		"makespan 0x3fa35a07b352a844",
		"dirty 0x3ff3b18ba8516266",
		"node 0 time 0x3f971a6d698fe692 dirty 0x3ff3b18ba8516266",
		"node 1 time 0x0000000000000000 dirty 0x0000000000000000",
		"node 2 time 0x3fa2dc7ef177a700 dirty 0x0000000000000000",
		"candidates 0x4079000000000000",
		"false-positives 0x4073900000000000",
		"frequent 0x4055c00000000000",
		"profile 0x40e86e8000000000",
	},
	"tree-mining": {
		"makespan 0x3fd2a8b08dd1e53b",
		"dirty 0x403364ad1f88d43c",
		"node 0 time 0x3fd29f4d37c1376d dirty 0x403364ad1f88d43c",
		"node 1 time 0x0000000000000000 dirty 0x0000000000000000",
		"node 2 time 0x3fce39bcba301216 dirty 0x0000000000000000",
		"candidates 0x4090a80000000000",
		"false-positives 0x4090480000000000",
		"frequent 0x4038000000000000",
		"profile 0x4098bc0000000000",
	},
	"graph-compression": {
		"makespan 0x3fa5c19c17225b75",
		"dirty 0x40049db83b3ccacf",
		"node 0 time 0x3fa5c19c17225b75 dirty 0x40049db83b3ccacf",
		"node 1 time 0x0000000000000000 dirty 0x0000000000000000",
		"node 2 time 0x3f9c55a7d24180d4 dirty 0x0000000000000000",
		"compression-ratio 0x4012b9e24df61bab",
		"profile 0x4096c80000000000",
	},
	"lz77-compression": {
		"makespan 0x3fa83af7ffc81372",
		"dirty 0x40073a1fc659ce17",
		"node 0 time 0x3fa83af7ffc81372 dirty 0x40073a1fc659ce17",
		"node 1 time 0x0000000000000000 dirty 0x0000000000000000",
		"node 2 time 0x3f930b2de9d6813a dirty 0x0000000000000000",
		"compression-ratio 0x3ff482439bad77c5",
		"profile 0x4079600000000000",
	},
}

// TestRunRecordedBits pins every executor's output bit for bit: a
// phase started at the wrong trace offset, a dropped fixed-seconds
// term, a changed candidate set or a profile that runs a different job
// moves some line.
func TestRunRecordedBits(t *testing.T) {
	cl := tinyCluster(t, 3)
	for _, w := range tinyWorkloads(t) {
		res, quality, err := w.Run(cl, unevenAssignment(w.Corpus().Len()), recordedOffset)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		profile, err := w.Profile([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
		if err != nil {
			t.Fatalf("%s: profile: %v", w.Name(), err)
		}
		got, want := fingerprint(res, quality, profile), recordedBits[w.Name()]
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s:\n got %q\nwant %q", w.Name(), got, want)
		}
	}
}
