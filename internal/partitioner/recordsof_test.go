package partitioner_test

import (
	"bytes"
	"reflect"
	"testing"

	"pareto/internal/datasets"
	"pareto/internal/partitioner"
	"pareto/internal/pivots"
	"pareto/internal/replan"
)

// recordsOfCorpora builds one small corpus per record domain, plus a
// DynamicCorpus holding ingested wire records behind its base.
func recordsOfCorpora(t *testing.T) map[string]pivots.Corpus {
	t.Helper()
	trees, _, err := datasets.GenerateTrees(datasets.SwissProtLike(0.005))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := pivots.NewTreeCorpus(trees)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := datasets.RCV1Like(0.0005)
	docs, _, err := datasets.GenerateText(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	text, err := pivots.NewTextCorpus(docs, tcfg.VocabSize)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := datasets.GenerateGraph(datasets.UKLike(0.0005))
	if err != nil {
		t.Fatal(err)
	}
	graph, err := pivots.NewGraphCorpus(g)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := replan.NewDynamicCorpus(text)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, _, err := dyn.Append(text.AppendRecord(nil, (7*i)%text.Len())); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]pivots.Corpus{"tree": tree, "text": text, "graph": graph, "dynamic": dyn}
}

// striped deals n records round-robin over p partitions, back to front
// so placement order is not index order.
func striped(n, p int) *partitioner.Assignment {
	a := &partitioner.Assignment{Parts: make([][]int, p)}
	for i := n - 1; i >= 0; i-- {
		a.Parts[i%p] = append(a.Parts[i%p], i)
	}
	return a
}

// TestRecordsOfMatchesPerRecordEncoding pins the arena encoding to the
// per-record one, byte for byte, and checks the records do not share
// spare capacity: appending to one must not reach its neighbour.
func TestRecordsOfMatchesPerRecordEncoding(t *testing.T) {
	for name, c := range recordsOfCorpora(t) {
		a := striped(c.Len(), 3)
		for j := range a.Parts {
			recs := partitioner.RecordsOf(c, a, j)
			if len(recs) != len(a.Parts[j]) {
				t.Fatalf("%s partition %d: %d records, want %d", name, j, len(recs), len(a.Parts[j]))
			}
			for i, r := range a.Parts[j] {
				want := c.AppendRecord(nil, r)
				if !bytes.Equal(recs[i], want) {
					t.Fatalf("%s partition %d record %d (corpus index %d): bytes differ", name, j, i, r)
				}
				if c.RecordSize(r) != len(want) {
					t.Fatalf("%s record %d: RecordSize %d, encoded %d", name, r, c.RecordSize(r), len(want))
				}
				if cap(recs[i]) != len(recs[i]) {
					t.Fatalf("%s partition %d record %d: cap %d > len %d", name, j, i, cap(recs[i]), len(recs[i]))
				}
			}
			// A suffix of the partition encodes to the same records.
			from := len(recs) / 3
			if tail := partitioner.EncodeRecords(c, a.Parts[j][from:]); !reflect.DeepEqual(tail, recs[from:]) {
				t.Fatalf("%s partition %d: records from %d on encode differently alone", name, j, from)
			}
			if len(recs) > 1 {
				next := append([]byte(nil), recs[1]...)
				_ = append(recs[0], 0xff)
				if !bytes.Equal(recs[1], next) {
					t.Fatalf("%s partition %d: appending to record 0 overwrote record 1", name, j)
				}
			}
		}
	}
}

// TestRecordsOfAllocsIndependentOfRecordCount: one arena and one slice
// of records per partition, whether it holds ten records or the whole
// corpus.
func TestRecordsOfAllocsIndependentOfRecordCount(t *testing.T) {
	for name, c := range recordsOfCorpora(t) {
		for _, n := range []int{10, c.Len()} {
			a := striped(n, 1)
			if got := testing.AllocsPerRun(10, func() { partitioner.RecordsOf(c, a, 0) }); got > 4 {
				t.Errorf("%s, %d records: %.0f allocations per partition, want ≤ 4", name, n, got)
			}
		}
	}
}
