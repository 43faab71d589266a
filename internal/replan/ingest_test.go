package replan

import (
	"encoding/binary"
	"testing"

	"pareto/internal/pivots"
)

// record frames payload words as one length-prefixed wire record.
func record(words ...uint32) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(4*len(words)))
	for _, w := range words {
		b = binary.LittleEndian.AppendUint32(b, w)
	}
	return b
}

// TestDecodeRecordRejectsMalformed: records the codecs parse but no
// corpus may hold are errors, not panics or silently accepted item
// sets. The first is a 2-node tree whose node 1 names parent 7, which
// made Tree.Pivots index out of range.
func TestDecodeRecordRejectsMalformed(t *testing.T) {
	minus1 := ^uint32(0)
	cases := []struct {
		name string
		kind pivots.Kind
		raw  []byte
	}{
		{"tree parent out of range", pivots.TreeData, record(2, minus1, 7, 1, 2)},
		{"tree parent after child", pivots.TreeData, record(3, minus1, 2, 0, 1, 2, 3)},
		{"tree without root", pivots.TreeData, record(1, 0, 1)},
		{"text terms unsorted", pivots.TextData, record(3, 5, 2, 9)},
		{"text term repeated", pivots.TextData, record(2, 4, 4)},
		{"graph neighbours unsorted", pivots.GraphData, record(1, 2, 8, 3)},
	}
	for _, c := range cases {
		if items, _, err := decodeRecord(c.kind, c.raw); err == nil {
			t.Errorf("%s: decoded to %v", c.name, items)
		}
	}
	good := []struct {
		kind   pivots.Kind
		raw    []byte
		weight int
	}{
		{pivots.TreeData, record(3, minus1, 0, 0, 1, 2, 3), 3},
		{pivots.TextData, record(3, 2, 5, 9), 3},
		{pivots.GraphData, record(1, 2, 3, 8), 3},
	}
	for _, g := range good {
		items, weight, err := decodeRecord(g.kind, g.raw)
		if err != nil || weight != g.weight || len(items) == 0 {
			t.Errorf("%v record: %v, weight %d, %v", g.kind, items, weight, err)
		}
	}
}

// TestIngestRejectsMalformed: Loop.Ingest decodes with decodeRecord,
// so what it refuses the loop refuses, and so is a record of another
// kind than the loop's corpus; neither grows the corpus nor queues a
// placement.
func TestIngestRejectsMalformed(t *testing.T) {
	docs, vocab := replanDocs(t)
	base, err := pivots.NewTextCorpus(docs[:100], vocab)
	if err != nil {
		t.Fatal(err)
	}
	l, err := New(base, paperCluster(t, 4), weightProfile(base), Config{Core: loopCoreConfig(1)})
	if err != nil {
		t.Fatal(err)
	}
	minus1 := ^uint32(0)
	for _, c := range []struct {
		name string
		raw  []byte
	}{
		{"text terms unsorted", record(3, 5, 2, 9)},
		{"truncated", []byte{1, 2, 3}},
		{"trailing bytes", append(record(1, 4), 0)},
		{"tree record", record(3, minus1, 0, 0, 1, 2, 3)},
		{"graph record", record(1, 2, 3, 8)},
	} {
		if s, err := l.Ingest(c.raw); err == nil {
			t.Errorf("%s: ingested into stratum %d", c.name, s)
		}
	}
	if l.Len() != base.Len() || l.Pending() != 0 {
		t.Errorf("refused records left the loop at %d records, %d pending", l.Len(), l.Pending())
	}
}

// FuzzDecodeRecord feeds arbitrary bytes to the Tailer's decoder as
// each of the three record kinds. It must never panic, and what it
// accepts must be what a corpus may hold: a strictly increasing item
// set and the weight the corpus type would give it.
func FuzzDecodeRecord(f *testing.F) {
	minus1 := ^uint32(0)
	f.Add(uint8(pivots.TreeData), record(3, minus1, 0, 0, 1, 2, 3))
	f.Add(uint8(pivots.TreeData), record(2, minus1, 7, 1, 2))
	f.Add(uint8(pivots.GraphData), record(1, 2, 3, 8))
	f.Add(uint8(pivots.TextData), record(3, 2, 5, 9))
	f.Add(uint8(pivots.TextData), record(3, 5, 2, 9))
	f.Fuzz(func(t *testing.T, kind uint8, raw []byte) {
		k := pivots.Kind(kind % 3)
		items, weight, err := decodeRecord(k, raw)
		if err != nil {
			return
		}
		for i := 1; i < len(items); i++ {
			if items[i] <= items[i-1] {
				t.Fatalf("%v record decoded to items out of order: %v", k, items)
			}
		}
		n := int(binary.LittleEndian.Uint32(raw[4:]))
		want := map[pivots.Kind]int{pivots.TreeData: n, pivots.GraphData: len(items) + 1, pivots.TextData: len(items)}[k]
		if weight != want {
			t.Fatalf("%v record of %d items has weight %d, want %d", k, len(items), weight, want)
		}
	})
}
