package kvstore_test

import (
	"fmt"
	"time"

	"pareto/internal/kvstore"
)

// Start a store, write a partition as a list with a pipelined batch,
// and fetch it back in LRANGE windows.
func ExampleClient_Pipe() {
	srv := kvstore.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	c, err := kvstore.Dial(addr, time.Second)
	if err != nil {
		panic(err)
	}
	defer c.Close()

	p, err := c.Pipe("partition:0", 64)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 1000; i++ {
		if err := p.Send("RPUSH", []byte("partition:0"), []byte{byte(i)}); err != nil {
			panic(err)
		}
	}
	if _, err := p.Finish(); err != nil {
		panic(err)
	}
	records := 0
	err = c.LRangeChunked("partition:0", 256, func(batch [][]byte) error {
		records += len(batch)
		return nil
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("stored %d records\n", records)
	// Output:
	// stored 1000 records
}

// The global barrier separates pipeline phases across workers.
func ExampleBarrier() {
	srv := kvstore.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer srv.Close()

	done := make(chan string, 2)
	for _, name := range []string{"worker-a", "worker-b"} {
		go func(name string) {
			c, err := kvstore.Dial(addr, time.Second)
			if err != nil {
				panic(err)
			}
			defer c.Close()
			b, err := kvstore.NewBarrier(c, "phase", 2)
			if err != nil {
				panic(err)
			}
			if err := b.Await(); err != nil {
				panic(err)
			}
			done <- name
		}(name)
	}
	<-done
	<-done
	fmt.Println("both workers passed the barrier")
	// Output:
	// both workers passed the barrier
}
