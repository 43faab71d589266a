package lz77

import (
	"bytes"
	"encoding/binary"
	"fmt"
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
	got, gotErr := Compress(data, cfg)
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

// ukRecords is a partition's worth of serialized UK-like webgraph
// records, packed the way bench.LZ77Compression packs one: every
// record of a small graph, appended in order.
func ukRecords(tb testing.TB, scale float64) []byte {
	tb.Helper()
	g, _, err := datasets.GenerateGraph(datasets.UKLike(scale))
	if err != nil {
		tb.Fatal(err)
	}
	corpus, err := pivots.NewGraphCorpus(g)
	if err != nil {
		tb.Fatal(err)
	}
	size := 0
	for i := 0; i < corpus.Len(); i++ {
		size += corpus.RecordSize(i)
	}
	data := make([]byte, 0, size)
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
