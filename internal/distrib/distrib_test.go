package distrib

import (
	"reflect"
	"testing"
	"time"

	"pareto/internal/datasets"
	"pareto/internal/kvstore"
	"pareto/internal/pivots"
	"pareto/internal/sketch"
	"pareto/internal/strata"
)

func testCorpus(t *testing.T, scale float64) *pivots.TextCorpus {
	t.Helper()
	cfg := datasets.RCV1Like(scale)
	docs, _, err := datasets.GenerateText(cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := pivots.NewTextCorpus(docs, cfg.VocabSize)
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

func startStore(t *testing.T, clients int) (*kvstore.Client, []*kvstore.Client) {
	t.Helper()
	srv := kvstore.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	dial := func() *kvstore.Client {
		c, err := kvstore.Dial(addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	master := dial()
	ws := make([]*kvstore.Client, clients)
	for i := range ws {
		ws[i] = dial()
	}
	return master, ws
}

func TestDistributedMatchesCentralized(t *testing.T) {
	corpus := testCorpus(t, 0.0006)
	master, workers := startStore(t, 4)
	opts := Options{
		SketchWidth: 24,
		Cluster:     strata.Config{K: 6, L: 3, Seed: 11},
		Seed:        5,
	}
	dist, _, err := StratifyDetailed(master, workers, corpus, opts)
	if err != nil {
		t.Fatal(err)
	}
	central, err := strata.Stratify(corpus, strata.StratifierConfig{
		SketchWidth: 24,
		Cluster:     strata.Config{K: 6, L: 3, Seed: 11},
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dist.Assign, central.Assign) {
		t.Fatal("distributed assignment differs from centralized")
	}
	if !reflect.DeepEqual(dist.WeightTotals, central.WeightTotals) {
		t.Fatal("weight totals differ")
	}
	for s := range central.Members {
		if !reflect.DeepEqual(dist.Members[s], central.Members[s]) {
			t.Fatalf("stratum %d members differ", s)
		}
	}
}

func TestDistributedSingleWorker(t *testing.T) {
	corpus := testCorpus(t, 0.0003)
	master, workers := startStore(t, 1)
	dist, _, err := StratifyDetailed(master, workers, corpus, Options{
		Cluster: strata.Config{K: 4, L: 2, Seed: 3},
		Seed:    9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dist.Assign) != corpus.Len() {
		t.Errorf("assignment covers %d of %d", len(dist.Assign), corpus.Len())
	}
}

func TestDistributedValidation(t *testing.T) {
	corpus := testCorpus(t, 0.0003)
	master, workers := startStore(t, 2)
	if _, _, err := StratifyDetailed(nil, workers, corpus, Options{Cluster: strata.Config{K: 2, L: 1}}); err == nil {
		t.Error("nil master accepted")
	}
	if _, _, err := StratifyDetailed(master, nil, corpus, Options{Cluster: strata.Config{K: 2, L: 1}}); err == nil {
		t.Error("no workers accepted")
	}
	if _, _, err := StratifyDetailed(master, workers, nil, Options{Cluster: strata.Config{K: 2, L: 1}}); err == nil {
		t.Error("nil corpus accepted")
	}
	if _, _, err := StratifyDetailed(master, workers, corpus, Options{Cluster: strata.Config{K: 0, L: 1}}); err == nil {
		t.Error("K=0 accepted (cluster config must validate)")
	}
}

func TestDistributedMoreWorkersThanRecords(t *testing.T) {
	docs := []pivots.Doc{{Terms: []uint32{0, 1}}, {Terms: []uint32{2, 3}}}
	corpus, err := pivots.NewTextCorpus(docs, 4)
	if err != nil {
		t.Fatal(err)
	}
	master, workers := startStore(t, 5) // some shards empty
	dist, _, err := StratifyDetailed(master, workers, corpus, Options{
		Cluster: strata.Config{K: 2, L: 1, Seed: 1},
		Seed:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dist.Assign) != 2 {
		t.Errorf("assignment %v", dist.Assign)
	}
}

func TestSketchRecordRoundtrip(t *testing.T) {
	// Two records back to back are one block; each lands in its own
	// slot of the arena, and slots nobody shipped stay nil.
	recs := map[int]sketch.Sketch{42: {1, 2, 1 << 60}, 7: {9, 8, 7}}
	var block []byte
	for _, idx := range []int{42, 7} {
		var err error
		if block, err = appendSketchRecord(block, idx, recs[idx]); err != nil {
			t.Fatal(err)
		}
	}
	const n, width = 50, 3
	flat := make([]uint64, n*width)
	out := make([]sketch.Sketch, n)
	if err := decodeSketchBlock(block, width, flat, out); err != nil {
		t.Fatal(err)
	}
	for idx, s := range out {
		if want, ok := recs[idx]; !ok {
			if s != nil {
				t.Fatalf("record %d decoded from nowhere", idx)
			}
		} else if !reflect.DeepEqual(s, want) || &s[0] != &flat[idx*width] {
			t.Fatalf("record %d = %v, want %v in its arena slot", idx, s, want)
		}
	}
	past, _ := appendSketchRecord(nil, n, recs[7])
	for name, bad := range map[string][]byte{
		"empty":          nil,
		"short":          {1, 2},
		"ragged":         block[:len(block)-1],
		"index past end": past,
	} {
		if err := decodeSketchBlock(bad, width, flat, out); err == nil {
			t.Errorf("%s block accepted", name)
		}
	}
}

func TestSketchRecordRejectsWireOverflow(t *testing.T) {
	s := sketch.Sketch{1}
	if _, err := appendSketchRecord(nil, -1, s); err == nil {
		t.Error("negative index accepted")
	}
	if big := int(int64(1) << 32); big > 0 { // skip on 32-bit int
		if _, err := appendSketchRecord(nil, big, s); err == nil {
			t.Error("index past uint32 accepted")
		}
	}
}

func TestAssignmentRoundtrip(t *testing.T) {
	in := []int{0, 5, 2, 7, 1, 3, 6, 4}
	enc, err := encodeAssignment(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeAssignment(enc, len(in), 8)
	if err != nil || !reflect.DeepEqual(in, out) {
		t.Fatalf("roundtrip %v, %v", out, err)
	}
	for _, c := range []struct {
		buf  []byte
		n, k int
	}{
		{append(enc, 0, 0, 0), 8, 8}, // 4n+3 bytes
		{enc[:28], 8, 8},             // n−1 ids
		{enc, 8, 7},                  // id 7 ≥ K
		{enc[:16], 4, 8},             // ids 5 and 7 ≥ n
	} {
		if out, err := decodeAssignment(c.buf, c.n, c.k); err == nil {
			t.Errorf("%d bytes, n=%d, K=%d decoded as %v", len(c.buf), c.n, c.k, out)
		}
	}
}

func TestAssignmentRejectsWireOverflow(t *testing.T) {
	if _, err := encodeAssignment([]int{0, -3}); err == nil {
		t.Error("negative stratum accepted")
	}
	if big := int(int64(1) << 32); big > 0 { // skip on 32-bit int
		if _, err := encodeAssignment([]int{big}); err == nil {
			t.Error("stratum past uint32 accepted")
		}
	}
}
