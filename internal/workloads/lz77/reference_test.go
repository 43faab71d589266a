package lz77

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"pareto/internal/datasets"
	"pareto/internal/pivots"
)

// referenceCompress is the byte-at-a-time matcher Compress replaced,
// kept verbatim (its match-length helper renamed) as the oracle of
// TestCompressMatchesReference: a prev array of one link per input
// byte, a pending literal buffer, a full byte-by-byte matchLen for every
// probe. Compress must reproduce its Data, Cost and Matches.
func referenceCompress(data []byte, cfg Config) (*Encoded, error) {
	window := cfg.windowSize
	if window == 0 {
		window = DefaultWindow
	}
	if window < minMatch {
		return nil, fmt.Errorf("lz77: window %d below minimum match %d", window, minMatch)
	}
	maxChain := cfg.maxChain
	if maxChain == 0 {
		maxChain = DefaultMaxChain
	}
	if maxChain < 1 {
		return nil, fmt.Errorf("lz77: max chain %d", maxChain)
	}
	enc := &Encoded{RawLen: len(data)}
	var out []byte
	var lit []byte // pending literal run
	head := make([]int32, 1<<hashBits)
	for i := range head {
		head[i] = -1
	}
	prev := make([]int32, len(data))
	flushLits := func() {
		if len(lit) == 0 {
			return
		}
		out = append(out, 0x00)
		out = binary.AppendUvarint(out, uint64(len(lit)))
		out = append(out, lit...)
		lit = lit[:0]
	}
	pos := 0
	insert := func(p int) {
		if p+minMatch <= len(data) {
			h := hash4(data[p:])
			prev[p] = head[h]
			head[h] = int32(p)
		}
	}
	for pos < len(data) {
		enc.Cost++
		bestLen, bestDist := 0, 0
		if pos+minMatch <= len(data) {
			h := hash4(data[pos:])
			cand := head[h]
			probes := 0
			for cand >= 0 && probes < maxChain && pos-int(cand) <= window {
				probes++
				enc.Cost++
				l := referenceMatchLen(data, int(cand), pos)
				if l > bestLen {
					bestLen = l
					bestDist = pos - int(cand)
				}
				cand = prev[cand]
			}
		}
		if bestLen >= minMatch {
			flushLits()
			out = append(out, 0x01)
			out = binary.AppendUvarint(out, uint64(bestLen))
			out = binary.AppendUvarint(out, uint64(bestDist))
			enc.Matches++
			for k := 0; k < bestLen; k++ {
				insert(pos + k)
			}
			pos += bestLen
			enc.Cost += float64(bestLen)
		} else {
			lit = append(lit, data[pos])
			insert(pos)
			pos++
		}
	}
	flushLits()
	enc.Data = out
	return enc, nil
}

// referenceMatchLen counts matching bytes between positions a (earlier)
// and b.
func referenceMatchLen(data []byte, a, b int) int {
	n := 0
	for b+n < len(data) && data[a+n] == data[b+n] && n < maxMatch {
		n++
	}
	return n
}

// sameAsReference reports how Compress and referenceCompress differ on
// one input, or "" when Data, Cost, Matches and RawLen all agree (or
// both reject the configuration).
func sameAsReference(data []byte, cfg Config) string {
	return sameSplitAsReference(data, [][]byte{data}, cfg)
}

// ukCorpus is a small UK-like webgraph's corpus of serialized records.
func ukCorpus(tb testing.TB, scale float64) *pivots.GraphCorpus {
	tb.Helper()
	g, _, err := datasets.GenerateGraph(datasets.UKLike(scale))
	if err != nil {
		tb.Fatal(err)
	}
	corpus, err := pivots.NewGraphCorpus(g)
	if err != nil {
		tb.Fatal(err)
	}
	return corpus
}

// ukRecords is a partition's worth of serialized UK-like webgraph
// records, in the order bench.LZ77Compression writes one: every record
// of a small graph, appended in order.
func ukRecords(tb testing.TB, scale float64) []byte {
	tb.Helper()
	var data []byte
	corpus := ukCorpus(tb, scale)
	for i := 0; i < corpus.Len(); i++ {
		data = corpus.AppendRecord(data, i)
	}
	return data
}

// referenceInputs are the seeded inputs of TestCompressMatchesReference:
// inputs too short to hash, random bytes over alphabets of 1 to 255
// symbols, random bytes with repeats of earlier stretches spliced in
// (some longer than maxMatch, some overlapping their source), and
// serialized UK-like records.
func referenceInputs(tb testing.TB) [][]byte {
	rng := rand.New(rand.NewSource(40))
	inputs := [][]byte{nil, {}, {7}, {1, 2}, {3, 3, 3}, {0, 0, 0, 0}}
	for _, alpha := range []int{1, 2, 3, 4, 16, 64, 200, 255} {
		for _, n := range []int{5, 9, 100, 3000} {
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(rng.Intn(alpha))
			}
			inputs = append(inputs, b)
		}
	}
	for trial := 0; trial < 12; trial++ {
		alpha := 1 + rng.Intn(255)
		size := 2*maxMatch + rng.Intn(maxMatch)
		b := make([]byte, 0, size+2*maxMatch)
		for len(b) < size {
			if len(b) < 64 || rng.Intn(3) == 0 {
				for k := rng.Intn(40); k >= 0; k-- {
					b = append(b, byte(rng.Intn(alpha)))
				}
				continue
			}
			// Splice a repeat of an earlier stretch: short, long, or
			// longer than maxMatch; copying byte by byte lets it
			// overlap its own source (a run).
			var n int
			switch rng.Intn(4) {
			case 0:
				n = maxMatch + 1 + rng.Intn(maxMatch/2)
			case 1:
				n = 100 + rng.Intn(5000)
			default:
				n = 1 + rng.Intn(30)
			}
			src := rng.Intn(len(b))
			for k := 0; k < n; k++ {
				b = append(b, b[src+k])
			}
		}
		inputs = append(inputs, b)
	}
	return append(inputs, ukRecords(tb, 0.00003), ukRecords(tb, 0.0003))
}

func TestCompressMatchesReference(t *testing.T) {
	const noWrap = 1 << 20 // a window no input here reaches
	windows := []int{4, 100, 0, noWrap}
	chains := []int{1, 5, 0, 200}
	if testing.Short() {
		chains = []int{1, 0}
	}
	for i, data := range referenceInputs(t) {
		if len(data) > noWrap {
			t.Fatalf("input %d: %d bytes, longer than the no-wrap window", i, len(data))
		}
		for _, w := range windows {
			for _, c := range chains {
				if msg := sameAsReference(data, Config{windowSize: w, maxChain: c}); msg != "" {
					t.Errorf("input %d (%d bytes), window %d, chain %d: %s", i, len(data), w, c, msg)
				}
			}
		}
	}
}

func FuzzCompressMatchesReference(f *testing.F) {
	f.Add([]byte("abcabcabcabcabcabc"), 0, 0)
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3}, 300), 4, 1)
	f.Add(bytes.Repeat([]byte("a"), 2000), 100, 200)
	f.Add([]byte("record-header-v1|x\x00record-header-v1|y\x01"), 7, 5)
	f.Fuzz(func(t *testing.T, data []byte, window, chain int) {
		// Keep the window and chain small enough that one input stays
		// fast, while still reaching 0 (the defaults), invalid values
		// and windows larger than the input.
		window %= 1 << 12
		chain %= 300
		if msg := sameAsReference(data, Config{windowSize: window, maxChain: chain}); msg != "" {
			t.Fatalf("window %d, chain %d: %s", window, chain, msg)
		}
	})
}

// splitWrites cuts data into writes whose lengths cycle through split:
// a byte b gives 1 + b² bytes, from 1 to 65,026, either side of the
// lookahead an encoded position waits for. An empty split is one write.
func splitWrites(data, split []byte) [][]byte {
	if len(split) == 0 {
		return [][]byte{data}
	}
	var writes [][]byte
	for i := 0; len(data) > 0; i++ {
		b := int(split[i%len(split)])
		n := min(1+b*b, len(data))
		writes = append(writes, data[:n])
		data = data[n:]
	}
	return writes
}

// sameSplitAsReference reports how a Writer given data in the given
// writes and referenceCompress differ, or "" when Data, Cost, Matches
// and RawLen all agree (or both reject the configuration).
func sameSplitAsReference(data []byte, writes [][]byte, cfg Config) string {
	got, gotErr := compressWrites(cfg, writes...)
	want, wantErr := referenceCompress(data, cfg)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		return fmt.Sprintf("error %v, reference error %v", gotErr, wantErr)
	case gotErr != nil:
		return ""
	case !bytes.Equal(got.Data, want.Data):
		return fmt.Sprintf("Data differs: %d bytes, reference %d", len(got.Data), len(want.Data))
	case got.Cost != want.Cost:
		return fmt.Sprintf("Cost %v, reference %v", got.Cost, want.Cost)
	case got.Matches != want.Matches:
		return fmt.Sprintf("Matches %d, reference %d", got.Matches, want.Matches)
	case got.RawLen != want.RawLen:
		return fmt.Sprintf("RawLen %d, reference %d", got.RawLen, want.RawLen)
	}
	return ""
}

// TestWriterSplitsMatchReference writes each reference input, and runs
// of period 1 and 3 longer than two maximal matches, in pieces of one
// byte, of a fixed size either side of the lookahead, and of seeded
// random sizes; every split must give the reference's stream.
func TestWriterSplitsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	random := make([]byte, 64)
	rng.Read(random)
	splits := [][]byte{{0}, {2}, {255}, {64}, random}
	runs := [][]byte{bytes.Repeat([]byte{'a'}, 3*maxMatch), bytes.Repeat([]byte("abc"), maxMatch)}
	for i, data := range append(referenceInputs(t), runs...) {
		for _, w := range []int{4, 0} {
			for _, split := range splits {
				if msg := sameSplitAsReference(data, splitWrites(data, split), Config{windowSize: w}); msg != "" {
					t.Errorf("input %d (%d bytes), window %d, split %v: %s", i, len(data), w, split[:min(len(split), 4)], msg)
				}
			}
		}
	}
}

// TestWriterLookaheadAtSlide runs maximal matches across the point where
// a full buffer stops encoding: a run of one byte four maximal matches
// long, after 0 to 63 random bytes, puts a match start on each offset
// around it. A position encoded with even one byte less lookahead than
// it needs, its match reaching the buffer's end, skips inserting the
// match's last positions, and the next match finds an older candidate.
func TestWriterLookaheadAtSlide(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for shift := 0; shift < 64; shift++ {
		data := make([]byte, shift, shift+4*maxMatch)
		rng.Read(data)
		data = append(data, bytes.Repeat([]byte{'a'}, 4*maxMatch)...)
		for _, w := range []int{4, 0} {
			if msg := sameAsReference(data, Config{windowSize: w}); msg != "" {
				t.Errorf("shift %d, window %d: %s", shift, w, msg)
			}
		}
	}
}

// TestWriterRebaseMatchesReference lowers the rebase threshold to the
// least the Writer accepts, so that a stream of several buffers — UK-like
// records with an incompressible stretch, a literal run longer than the
// buffer, in the middle — moves the tables' origin many times. The
// stream must still equal the reference's.
func TestWriterRebaseMatchesReference(t *testing.T) {
	recs := ukRecords(t, 0.0006)
	noise := make([]byte, 300<<10)
	rand.New(rand.NewSource(42)).Read(noise)
	data := append(append(append([]byte{}, recs[:len(recs)/2]...), noise...), recs[len(recs)/2:]...)
	for _, window := range []int{100, 0} {
		probe, err := NewWriter(io.Discard, Config{windowSize: window})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{windowSize: window, rebaseAt: cap(probe.buf) + probe.window + len(probe.prev)}
		if _, err := NewWriter(io.Discard, Config{windowSize: window, rebaseAt: cfg.rebaseAt - 1}); err == nil {
			t.Errorf("window %d: rebase threshold %d accepted", window, cfg.rebaseAt-1)
		}
		var out bytes.Buffer
		w, err := NewWriter(&out, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range splitWrites(data, []byte{10, 3, 17, 1}) {
			if _, err := w.Write(p); err != nil {
				t.Fatal(err)
			}
		}
		st, err := w.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rebases := w.origin / len(w.prev); rebases < 10 {
			t.Errorf("window %d: origin %d, %d rings up: too few rebases to test", window, w.origin, rebases)
		}
		want, err := referenceCompress(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want.Data) || st.Cost != want.Cost || st.Matches != want.Matches || st.RawLen != len(data) {
			t.Errorf("window %d: %d bytes, Cost %v, %d matches; reference %d bytes, Cost %v, %d matches",
				window, out.Len(), st.Cost, st.Matches, len(want.Data), want.Cost, want.Matches)
		}
	}
}

// FuzzWriterSplitsMatchReference writes data, pad seeded random bytes
// and data again to a Writer, in writes cut by split. With pad up to
// 256 KiB the stream can pass the buffer, so a slide, a literal run
// spilled across one and an encoding held back for its lookahead all
// happen at fuzzed offsets. Any split must give the reference's Data,
// Cost and Matches.
func FuzzWriterSplitsMatchReference(f *testing.F) {
	f.Add([]byte("abcabcabcabcabcabc"), []byte{1, 7}, 0, 0, 0)
	f.Add(bytes.Repeat([]byte("record-header-v1|"), 40), []byte{255, 3}, 100, 5, 150000)
	f.Add([]byte{9, 9, 9, 9, 9}, []byte{0}, 4, 1, 70000)
	f.Add([]byte("x"), []byte{}, 4095, 299, 262143)
	f.Fuzz(func(t *testing.T, data, split []byte, window, chain, pad int) {
		window %= 1 << 12
		chain %= 300
		pad %= 1 << 18
		stream := append([]byte{}, data...)
		if pad > 0 {
			noise := make([]byte, pad)
			rand.New(rand.NewSource(int64(pad))).Read(noise)
			stream = append(stream, noise...)
		}
		stream = append(stream, data...)
		cfg := Config{windowSize: window, maxChain: chain}
		if msg := sameSplitAsReference(stream, splitWrites(stream, split), cfg); msg != "" {
			t.Fatalf("window %d, chain %d, pad %d, split %v: %s", window, chain, pad, split, msg)
		}
	})
}
