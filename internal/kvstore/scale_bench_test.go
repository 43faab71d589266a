package kvstore

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// Scaling benchmark for the multi-core data plane: many concurrent
// clients, each driving a deep pipeline of alternating SET/GET over
// its own connection, against a server with GOMAXPROCS-scaled shards.
// Aggregate ops/sec is the paper's "heavy traffic" axis — run it at
// GOMAXPROCS=1 vs N to measure how the shard mask, lock striping, and
// writev reply batching convert cores into throughput.
//
//	go test ./internal/kvstore -bench ServerPipelinedSetGet -cpu 1,4,8

// BenchmarkServerPipelinedSetGet reports aggregate pipelined SET/GET
// throughput across GOMAXPROCS-many concurrent connections.
func BenchmarkServerPipelinedSetGet(b *testing.B) {
	const pipeWidth = 64
	srv := NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	var connID atomic.Int64
	val := make([]byte, 64)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// One connection and one pipeline per benchmark goroutine; keys
		// spread across shards via the connection id.
		id := connID.Add(1)
		c, err := Dial(addr, 5*time.Second)
		if err != nil {
			b.Error(err)
			return
		}
		defer c.Close()
		p, err := c.NewPipeline(pipeWidth)
		if err != nil {
			b.Error(err)
			return
		}
		keys := make([][]byte, 16)
		for k := range keys {
			keys[k] = []byte(fmt.Sprintf("bench:%d:%d", id, k))
		}
		i := 0
		queued := 0
		for pb.Next() {
			key := keys[i%len(keys)]
			if i%2 == 0 {
				err = p.Send("SET", key, val)
			} else {
				err = p.Send("GET", key)
			}
			if err != nil {
				b.Error(err)
				return
			}
			i++
			queued++
			if queued >= 2*pipeWidth {
				if _, err = p.Finish(); err != nil {
					b.Error(err)
					return
				}
				queued = 0
			}
		}
		if _, err = p.Finish(); err != nil {
			b.Error(err)
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}
