// Command kvstored runs one instance of the framework's
// Redis-compatible key-value store (paper §IV deploys one store per
// cluster node). It speaks the RESP protocol, so both this module's
// client and standard Redis clients can talk to it.
//
// Usage:
//
//	kvstored -addr 127.0.0.1:6379
//	kvstored -addr 127.0.0.1:6379 -aof s.aof -aof-sync 2ms
//	kvstored -addr 127.0.0.1:6379 -metrics-addr 127.0.0.1:9100
//
// With -metrics-addr the server also exposes its telemetry over HTTP:
// Prometheus text at /metrics, a JSON snapshot at /debug/vars. The
// same snapshot is available in-band via the INFO command.
//
// -aof makes the node durable on its own: a write is acknowledged only
// once the log holding it is fsynced, and a restart replays the log,
// truncating a record a crash tore mid-write. The engine's shard count
// follows GOMAXPROCS.
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
	aof := flag.String("aof", "", "append-only command log: replayed at start, group-commit fsynced at runtime")
	aofSync := flag.Duration("aof-sync", kvstore.DefaultAOFSyncWindow, "group-commit sync window (one fsync per window under load)")
	metricsAddr := flag.String("metrics-addr", "", "expose telemetry over HTTP on this address (empty = disabled)")
	flag.Parse()
	srv := kvstore.NewServer(nil)
	reg := telemetry.NewRegistry()
	srv.SetTelemetry(reg)
	if *aof != "" {
		if err := srv.EnableAOF(*aof, *aofSync); err != nil {
			fmt.Fprintf(os.Stderr, "kvstored: opening aof: %v\n", err)
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
