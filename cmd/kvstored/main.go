// Command kvstored runs one instance of the framework's
// Redis-compatible key-value store (paper §IV deploys one store per
// cluster node). It speaks the RESP protocol, so both this module's
// client and standard Redis clients can talk to it.
//
// Usage:
//
//	kvstored -addr 127.0.0.1:6379
//	kvstored -addr 127.0.0.1:6379 -shards 64
//	kvstored -addr 127.0.0.1:6379 -snapshot s.pkvs -aof s.aof -aof-sync 2ms
//	kvstored -addr 127.0.0.1:7001 -cluster-slots 0-511@127.0.0.1:7001,512-1023@127.0.0.1:7002
//	kvstored -addr 127.0.0.1:6379 -metrics-addr 127.0.0.1:9100
//
// With -metrics-addr the server also exposes its telemetry over HTTP:
// Prometheus text at /metrics, a JSON snapshot at /debug/vars. The
// same snapshot is available in-band via the INFO command.
//
// -cluster-slots assigns the full cluster's slot map (every node gets
// the same spec); this node serves the ranges whose address equals
// -cluster-self (default: -addr) and answers MOVED for the rest.
//
// -snapshot and -aof make the node durable on its own: a write is
// acknowledged only once the log holding it is fsynced, and a restart
// loads the snapshot and replays the log tail written since it.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"pareto/internal/kvstore"
	"pareto/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:6380", "listen address")
	shards := flag.Int("shards", 0, "engine shard count, rounded up to a power of two (0 = scale with GOMAXPROCS)")
	snapshot := flag.String("snapshot", "", "snapshot file: loaded at start, written by SAVE/BGREWRITEAOF and on shutdown")
	aof := flag.String("aof", "", "append-only command log: replayed after the snapshot at start, group-commit fsynced at runtime")
	aofSync := flag.Duration("aof-sync", kvstore.DefaultAOFSyncWindow, "group-commit sync window (one fsync per window under load)")
	clusterSlots := flag.String("cluster-slots", "", `cluster slot map, e.g. "0-511@host:p1,512-1023@host:p2" (empty = standalone)`)
	clusterSelf := flag.String("cluster-self", "", "this node's advertised address in the slot map (default: -addr)")
	metricsAddr := flag.String("metrics-addr", "", "expose telemetry over HTTP on this address (empty = disabled)")
	flag.Parse()
	srv := kvstore.NewServer(kvstore.NewEngineShards(*shards))
	reg := telemetry.NewRegistry()
	srv.SetTelemetry(reg)
	if *snapshot != "" {
		if err := srv.EnableSnapshot(*snapshot); err != nil {
			fmt.Fprintf(os.Stderr, "kvstored: loading snapshot: %v\n", err)
			os.Exit(1)
		}
	}
	if *aof != "" {
		if err := srv.EnableAOF(*aof, *aofSync); err != nil {
			fmt.Fprintf(os.Stderr, "kvstored: opening aof: %v\n", err)
			os.Exit(1)
		}
	}
	if *clusterSlots != "" {
		ranges, err := kvstore.ParseSlotRanges(*clusterSlots)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kvstored: %v\n", err)
			os.Exit(1)
		}
		self := *clusterSelf
		if self == "" {
			self = *addr
		}
		if err := srv.SetClusterSlots(self, ranges); err != nil {
			fmt.Fprintf(os.Stderr, "kvstored: %v\n", err)
			os.Exit(1)
		}
	}
	var metricsSrv *telemetry.HTTPServer
	if *metricsAddr != "" {
		var err error
		metricsSrv, err = reg.ListenAndServe(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kvstored: metrics listener: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("kvstored metrics on http://%s/metrics\n", metricsSrv.Addr)
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvstored: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("kvstored listening on %s (%d engine shards)\n", bound, srv.Engine().NumShards())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("kvstored: shutting down")
	if metricsSrv != nil {
		if err := metricsSrv.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "kvstored: metrics close: %v\n", err)
		}
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "kvstored: close: %v\n", err)
		os.Exit(1)
	}
}
