package distrib

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pareto/internal/datasets"
	"pareto/internal/kvstore"
	"pareto/internal/pivots"
	"pareto/internal/sketch"
	"pareto/internal/strata"
)

// benchCorpus builds n synthetic documents (8 distinct sorted terms
// each) — large enough that shipping cost, not corpus construction,
// dominates.
func benchCorpus(b *testing.B, n int) *pivots.TextCorpus {
	b.Helper()
	const vocab = 5000
	rng := rand.New(rand.NewSource(7))
	docs := make([]pivots.Doc, n)
	for i := range docs {
		seen := make(map[uint32]bool, 8)
		terms := make([]uint32, 0, 8)
		for len(terms) < 8 {
			t := uint32(rng.Intn(vocab))
			if !seen[t] {
				seen[t] = true
				terms = append(terms, t)
			}
		}
		for a := 1; a < len(terms); a++ {
			for k := a; k > 0 && terms[k-1] > terms[k]; k-- {
				terms[k-1], terms[k] = terms[k], terms[k-1]
			}
		}
		docs[i] = pivots.Doc{Terms: terms}
	}
	c, err := pivots.NewTextCorpus(docs, vocab)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func benchStoreClient(b *testing.B) *kvstore.Client {
	b.Helper()
	return benchStoreClients(b, 1)[0]
}

// benchStoreClients starts one server and dials it n times.
func benchStoreClients(b *testing.B, n int) []*kvstore.Client {
	b.Helper()
	srv := kvstore.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	cs := make([]*kvstore.Client, n)
	for i := range cs {
		c, err := kvstore.Dial(addr, 5*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		cs[i] = c
	}
	return cs
}

// shipShardPerRecord reimplements the pre-overhaul shipping path as
// the benchmark baseline: one freshly-allocated sketch and encoding
// per record, one RPUSH command per record, pipelined at width.
func shipShardPerRecord(c *kvstore.Client, corpus pivots.Corpus, hasher *sketch.Hasher, lo, hi int, key string, width int) error {
	if _, err := c.Del(key); err != nil {
		return err
	}
	p, err := c.Pipe(key, width)
	if err != nil {
		return err
	}
	for r := lo; r < hi; r++ {
		enc, err := appendSketchRecord(nil, r, hasher.Sketch(corpus.AppendItems(nil, r)))
		if err != nil {
			return err
		}
		if err := p.Send("RPUSH", []byte(key), enc); err != nil {
			return err
		}
	}
	reps, err := p.Finish()
	if err != nil {
		return err
	}
	for _, rep := range reps {
		if err := rep.Err(); err != nil {
			return err
		}
	}
	cnt, err := c.LLen(key)
	if err != nil {
		return err
	}
	if cnt != int64(hi-lo) {
		return fmt.Errorf("distrib: shard list holds %d of %d records", cnt, hi-lo)
	}
	return nil
}

// BenchmarkShipShard ships a 50k-record shard end to end (sketch +
// encode + wire + engine), comparing the seed per-record path against
// the batched variadic path. One benchmark op = one whole shard.
func BenchmarkShipShard(b *testing.B) {
	const records = 50_000
	const width = 128
	corpus := benchCorpus(b, records)
	hasher, err := sketch.NewHasher(8, 42)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("per-record", func(b *testing.B) {
		c := benchStoreClient(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := shipShardPerRecord(c, corpus, hasher, 0, records, "bench:shard", width); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})

	b.Run("batched", func(b *testing.B) {
		c := benchStoreClient(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := shipShard(c, corpus, hasher, 0, records, "bench:shard", width, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
}

// BenchmarkStratifyRepeat times the second and later runs of the whole
// protocol over one live server and one key prefix — what every timed
// repetition of the end-to-end benchmark's text workload is: about 20k
// documents (a quarter of its corpus), its strata, its two workers. One
// op = one StratifyDetailed; recovered_records/op is how many records
// the coordinator re-sketched itself instead of gathering them.
func BenchmarkStratifyRepeat(b *testing.B) {
	cfg := datasets.RCV1Like(0.025)
	docs, _, err := datasets.GenerateText(cfg)
	if err != nil {
		b.Fatal(err)
	}
	corpus, err := pivots.NewTextCorpus(docs, cfg.VocabSize)
	if err != nil {
		b.Fatal(err)
	}
	cs := benchStoreClients(b, 3)
	master, workers := cs[0], cs[1:]
	o := Options{Cluster: strata.Config{K: 16, L: 3, Seed: 11}, Seed: 5, PipelineWidth: 64}
	run := func() int {
		_, report, err := StratifyDetailed(master, workers, corpus, o)
		if err != nil {
			b.Fatal(err)
		}
		return report.RecoveredRecords
	}
	run() // the first run under a prefix is not the one being measured
	recovered := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recovered += run()
	}
	b.ReportMetric(float64(recovered)/float64(b.N), "recovered_records/op")
}
