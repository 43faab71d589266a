package pivots

import (
	"reflect"
	"slices"
	"testing"

	"pareto/internal/sketch"
)

// The stream decoders read what a partition store hands back: a
// concatenation of length-prefixed records. Each target below must
// never panic on any stream, must agree with a record-by-record walk
// of the single-record decoder (equal records, or both refuse), and
// must round-trip a valid encoding built from the fuzzed bytes.

// agree fails t unless a stream decoder's result matches the
// record-by-record walk's: both refuse, or both return equal records.
func agree[T any](t *testing.T, form string, want []T, wantErr error, got []T, err error) {
	t.Helper()
	switch {
	case (err != nil) != (wantErr != nil):
		t.Fatalf("%s: err %v, record-by-record err %v", form, err, wantErr)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%s: decoded %v, record-by-record %v", form, got, want)
	}
}

// fuzzSeeds adds to f each stream of records, a copy cut short of its
// last byte, and the empty stream.
func fuzzSeeds(f *testing.F, streams ...[]byte) {
	for _, s := range streams {
		f.Add(s)
		if len(s) > 0 {
			f.Add(s[:len(s)-1])
		}
	}
	f.Add([]byte{})
	f.Add([]byte{9, 9})
}

// FuzzDecodeTreeRecords holds DecodeTreeRecords and
// DecodeTreeRecordsParallel at 1 and 4 workers to the walk, and
// round-trips trees whose shapes and labels come from the input.
func FuzzDecodeTreeRecords(f *testing.F) {
	seed := &TreeCorpus{Trees: []Tree{
		{Parent: []int32{-1, 0, 0}, Label: []uint32{7, 8, 9}},
		{Parent: []int32{-1}, Label: []uint32{1}},
	}}
	fuzzSeeds(f, seed.AppendRecord(seed.AppendRecord(nil, 0), 1), seed.AppendRecord(nil, 1))
	f.Fuzz(func(t *testing.T, buf []byte) {
		var want []Tree
		var wantErr error
		for rest := buf; len(rest) > 0 && wantErr == nil; {
			var tr Tree
			tr, rest, wantErr = DecodeTreeRecord(rest)
			want = append(want, tr)
		}
		got, err := DecodeTreeRecords(buf)
		agree(t, "DecodeTreeRecords", want, wantErr, got, err)
		for _, w := range []int{1, 4} {
			got, err := DecodeTreeRecordsParallel(buf, w)
			agree(t, "DecodeTreeRecordsParallel", want, wantErr, got, err)
		}

		c := &TreeCorpus{}
		for i, b := range buf[:min(len(buf), 64)] {
			tr := Tree{Parent: make([]int32, b%6), Label: make([]uint32, b%6)}
			for j := range tr.Parent {
				tr.Parent[j], tr.Label[j] = int32(j)-1, uint32(b)<<8|uint32(i+j)
			}
			c.Trees = append(c.Trees, tr)
		}
		var enc []byte
		for i := range c.Trees {
			enc = c.AppendRecord(enc, i)
		}
		got, err = DecodeTreeRecordsParallel(enc, 4)
		agree(t, "round trip", c.Trees, nil, got, err)
	})
}

// FuzzDecodeTextRecords holds DecodeTextRecords and
// DecodeTextRecordsParallel at 1 and 4 workers to the walk, the
// vocabulary size included, and round-trips documents whose terms come
// from the input.
func FuzzDecodeTextRecords(f *testing.F) {
	seed := &TextCorpus{Docs: []Doc{{Terms: []uint32{1, 4, 9}}, {Terms: []uint32{}}}}
	fuzzSeeds(f, seed.AppendRecord(seed.AppendRecord(nil, 0), 1), seed.AppendRecord(nil, 0))
	f.Fuzz(func(t *testing.T, buf []byte) {
		var want []Doc
		var wantErr error
		vocab := 1
		for rest := buf; len(rest) > 0 && wantErr == nil; {
			var d Doc
			d, rest, wantErr = DecodeTextRecord(rest)
			want = append(want, d)
			for _, term := range d.Terms {
				vocab = max(vocab, int(term)+1)
			}
		}
		check := func(form string, got []Doc, gotVocab int, err error) {
			t.Helper()
			agree(t, form, want, wantErr, got, err)
			if err == nil && gotVocab != vocab {
				t.Fatalf("%s: vocabulary %d, record-by-record %d", form, gotVocab, vocab)
			}
		}
		got, gotVocab, err := DecodeTextRecords(buf)
		check("DecodeTextRecords", got, gotVocab, err)
		for _, w := range []int{1, 4} {
			got, gotVocab, err := DecodeTextRecordsParallel(buf, w)
			check("DecodeTextRecordsParallel", got, gotVocab, err)
		}

		c := &TextCorpus{}
		for i, b := range buf[:min(len(buf), 64)] {
			d := Doc{Terms: []uint32{}}
			for bit := uint32(0); bit < 8; bit++ {
				if b>>bit&1 == 1 {
					d.Terms = append(d.Terms, uint32(i)<<3|bit)
				}
			}
			c.Docs = append(c.Docs, d)
		}
		var enc []byte
		for i := range c.Docs {
			enc = c.AppendRecord(enc, i)
		}
		got, _, err = DecodeTextRecordsParallel(enc, 4)
		agree(t, "round trip", c.Docs, nil, got, err)
	})
}

// FuzzDecodeGraphRecords holds DecodeGraphRecords (it has no Parallel
// form) to the walk: an accepted stream names no vertex at or past its
// record count, and each vertex's row is its last record's adjacency.
// It round-trips graphs whose edges come from the input.
func FuzzDecodeGraphRecords(f *testing.F) {
	seed := &GraphCorpus{G: &Graph{Adj: [][]uint32{{1, 2}, {}, {0}}}}
	var whole []byte
	for v := range seed.G.Adj {
		whole = seed.AppendRecord(whole, v)
	}
	fuzzSeeds(f, whole, seed.AppendRecord(nil, 0))
	f.Fuzz(func(t *testing.T, buf []byte) {
		g, err := DecodeGraphRecords(buf)
		if err == nil {
			records := 0
			last := map[uint32][]uint32{}
			for rest := buf; len(rest) > 0; records++ {
				var v uint32
				var nbrs []uint32
				if v, nbrs, rest, err = DecodeGraphRecord(rest); err != nil {
					t.Fatalf("accepted a stream whose record %d is refused: %v", records, err)
				}
				last[v] = nbrs
			}
			if len(g.Adj) > records {
				t.Fatalf("%d rows from %d records", len(g.Adj), records)
			}
			for v, nbrs := range last {
				if !reflect.DeepEqual(g.Adj[v], nbrs) {
					t.Fatalf("vertex %d row %v, last record %v", v, g.Adj[v], nbrs)
				}
			}
		}

		c := &GraphCorpus{G: &Graph{}}
		n := min(len(buf), 64)
		for _, b := range buf[:n] {
			nbrs := []uint32{}
			for u := uint32(0); u < 8 && int(u) < n; u++ {
				if b>>u&1 == 1 {
					nbrs = append(nbrs, u)
				}
			}
			c.G.Adj = append(c.G.Adj, nbrs)
		}
		var enc []byte
		for v := range c.G.Adj {
			enc = c.AppendRecord(enc, v)
		}
		if g, err = DecodeGraphRecords(enc); err != nil || !reflect.DeepEqual(g.Adj, c.G.Adj) {
			t.Fatalf("%v round-trips to %v, %v", c.G.Adj, g, err)
		}
	})
}

// FuzzTreePivots builds a valid tree from the input, one (parent,
// label) byte pair per node after the root, and holds the items
// AppendItems appends behind a prefix, unsorted and with repeats, to
// referencePivots' set, item for item, and to Pivots() under an
// odd-width hasher.
func FuzzTreePivots(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 1, 1, 2, 0, 1})
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 0})
	h, err := sketch.NewHasher(7, 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		n := 1 + min(len(buf)/2, 256)
		tr := Tree{Parent: make([]int32, n), Label: make([]uint32, n)}
		tr.Parent[0] = -1
		for v := 1; v < n; v++ {
			p, l := buf[2*v-2], buf[2*v-1]
			tr.Parent[v] = int32(int(p) % v)
			tr.Label[v] = uint32(l) << (8 * (l % 4)) // every byte of a label in play
		}
		c, err := NewTreeCorpus([]Tree{tr})
		if err != nil {
			t.Fatal(err)
		}
		prefix := []sketch.Item{^sketch.Item(0), 3}
		items := c.AppendItems(slices.Clone(prefix), 0)
		if !slices.Equal(items[:len(prefix)], prefix) {
			t.Fatalf("prefix became %v", items[:len(prefix)])
		}
		items = items[len(prefix):]
		want, seen := referencePivots(&tr), map[sketch.Item]bool{}
		for _, it := range items {
			if !want[it] {
				t.Fatalf("item %d not in the definitional set", it)
			}
			seen[it] = true
		}
		if len(seen) != len(want) {
			t.Fatalf("items hold %d of the definitional set's %d pivots", len(seen), len(want))
		}
		set := tr.Pivots()
		if len(set) != len(want) {
			t.Fatalf("Pivots has %d items, the definitional set %d", len(set), len(want))
		}
		if got, want := h.Sketch(items), h.Sketch(set); !slices.Equal(got, want) {
			t.Fatalf("sketch of the items %v, of Pivots %v", got, want)
		}
	})
}
