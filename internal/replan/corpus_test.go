package replan

import (
	"bytes"
	"slices"
	"testing"

	"pareto/internal/pivots"
	"pareto/internal/sketch"
)

func smallTextCorpus(t *testing.T, n int) *pivots.TextCorpus {
	t.Helper()
	docs := make([]pivots.Doc, n)
	for i := range docs {
		docs[i] = pivots.Doc{Terms: []uint32{uint32(i), uint32(i + n), uint32(i + 2*n)}}
	}
	c, err := pivots.NewTextCorpus(docs, 3*n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDynamicCorpusIndexing(t *testing.T) {
	base := smallTextCorpus(t, 10)
	dyn, err := NewDynamicCorpus(base)
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Kind() != pivots.TextData || dyn.Len() != 10 {
		t.Fatalf("fresh dynamic corpus: kind %v len %d", dyn.Kind(), dyn.Len())
	}
	raw := base.AppendRecord(nil, 3)
	idx, err := dyn.Append([]sketch.Item{7, 8, 9}, 3, raw)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 10 {
		t.Errorf("first append got index %d, want 10", idx)
	}
	if dyn.Len() != 11 || len(dyn.items) != 1 {
		t.Errorf("len %d appended %d", dyn.Len(), len(dyn.items))
	}
	// Base indices are untouched; the appended index serves its own data.
	if got := dyn.AppendItems(nil, 3); len(got) != 3 || got[0] != base.AppendItems(nil, 3)[0] {
		t.Error("base item set changed")
	}
	if got := dyn.AppendItems(nil, 10); len(got) != 3 || got[0] != 7 {
		t.Errorf("appended item set %v", got)
	}
	if dyn.Weight(10) != 3 || dyn.Weight(2) != base.Weight(2) {
		t.Error("weight dispatch wrong")
	}
	// Raw wire bytes pass through verbatim.
	if !bytes.Equal(dyn.AppendRecord(nil, 10), raw) {
		t.Error("raw record not passed through verbatim")
	}
	if !bytes.Equal(dyn.AppendRecord(nil, 3), base.AppendRecord(nil, 3)) {
		t.Error("base record changed")
	}
}

// TestDynamicCorpusAppendItems: behind a prefix that must stay, into
// one reused buffer, base records append the base corpus's set and
// appended records their stored one; SketchAll over the corpus at 1 and
// 4 workers is bit-identical to sketching each set alone.
func TestDynamicCorpusAppendItems(t *testing.T) {
	base := smallTextCorpus(t, 10)
	dyn, err := NewDynamicCorpus(base)
	if err != nil {
		t.Fatal(err)
	}
	stored := [][]sketch.Item{{7, 8, 9}, {1}, {2, 40, 41, 900}}
	for _, items := range stored {
		if _, err := dyn.Append(items, len(items), nil); err != nil {
			t.Fatal(err)
		}
	}
	prefix := []sketch.Item{5, 5}
	buf := slices.Clone(prefix)
	for i := 0; i < dyn.Len(); i++ {
		buf = dyn.AppendItems(buf[:len(prefix)], i)
		if !slices.Equal(buf[:len(prefix)], prefix) {
			t.Fatalf("record %d: prefix became %v", i, buf[:len(prefix)])
		}
		want := stored[max(i-base.Len(), 0)]
		if i < base.Len() {
			want = base.AppendItems(nil, i)
		}
		if got := buf[len(prefix):]; !slices.Equal(got, want) {
			t.Fatalf("record %d: appended %v, want %v", i, got, want)
		}
	}
	h, err := sketch.NewHasher(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4} {
		got, _ := h.SketchAll(dyn.Len(), dyn.AppendItems, w)
		for i := range got {
			if want := h.Sketch(dyn.AppendItems(nil, i)); !slices.Equal(got[i], want) {
				t.Fatalf("workers=%d: record %d sketch differs", w, i)
			}
		}
	}
}

func TestDynamicCorpusOpaqueFallback(t *testing.T) {
	base := smallTextCorpus(t, 4)
	dyn, err := NewDynamicCorpus(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dyn.Append([]sketch.Item{1, 2}, 5, nil); err != nil {
		t.Fatal(err)
	}
	// The opaque record must stay self-delimiting: a store splitting a
	// concatenation of records must recover exactly this record.
	rec := dyn.AppendRecord(nil, 4)
	if len(rec) != 4+16 {
		t.Fatalf("opaque record is %d bytes, want 20", len(rec))
	}
	if got := uint32(rec[0]) | uint32(rec[1])<<8 | uint32(rec[2])<<16 | uint32(rec[3])<<24; got != 16 {
		t.Errorf("opaque payload header %d, want 16", got)
	}
}

func TestDynamicCorpusValidation(t *testing.T) {
	if _, err := NewDynamicCorpus(nil); err == nil {
		t.Error("nil base accepted")
	}
	base := smallTextCorpus(t, 3)
	dyn, _ := NewDynamicCorpus(base)
	if _, err := dyn.Append(nil, 1, nil); err == nil {
		t.Error("empty pivot set accepted")
	}
	if _, err := dyn.Append([]sketch.Item{1}, -1, nil); err == nil {
		t.Error("negative weight accepted")
	}
}
