// Command kvcli is a minimal interactive client for kvstored (and any
// RESP server): it reads whitespace-separated commands from stdin or
// from the command line and prints the replies.
//
// Usage:
//
//	kvcli -addr 127.0.0.1:6380 SET greeting hello
//	kvcli -addr 127.0.0.1:6380 info           # formatted server telemetry
//	kvcli -addr 127.0.0.1:6380                # interactive: one command per line
//
// The info subcommand fetches the server's telemetry snapshot (the
// INFO command) and renders command counts, latency percentiles and
// connection statistics instead of dumping raw JSON.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"pareto/internal/kvstore"
	"pareto/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:6380", "server address")
	flag.Parse()
	c, err := kvstore.Dial(*addr, 5*time.Second)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvcli: %v\n", err)
		os.Exit(1)
	}
	defer c.Close()

	if args := flag.Args(); len(args) > 0 {
		if err := runOne(c, args); err != nil {
			fmt.Fprintf(os.Stderr, "kvcli: %v\n", err)
			os.Exit(1)
		}
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if strings.EqualFold(fields[0], "quit") || strings.EqualFold(fields[0], "exit") {
			return
		}
		if err := runOne(c, fields); err != nil {
			fmt.Fprintf(os.Stderr, "kvcli: %v\n", err)
			return
		}
	}
}

// runOne sends one command and renders its reply. The info subcommand
// is special-cased into a formatted report; everything else passes
// through to the server verbatim.
func runOne(c *kvstore.Client, fields []string) error {
	if strings.EqualFold(fields[0], "info") && len(fields) == 1 {
		return runInfo(c)
	}
	args := make([][]byte, len(fields)-1)
	for i, f := range fields[1:] {
		args[i] = []byte(f)
	}
	rep, err := c.Do(fields[0], args...)
	if err != nil {
		return err
	}
	printReply(rep, "")
	return nil
}

// runInfo fetches and pretty-prints the server telemetry snapshot.
func runInfo(c *kvstore.Client) error {
	rep, err := c.Do("INFO")
	if err != nil {
		return err
	}
	if rep.Type == kvstore.ErrorReply {
		return fmt.Errorf("info: %s", rep.String())
	}
	snap, err := telemetry.ReadSnapshot(strings.NewReader(rep.String()))
	if err != nil {
		return fmt.Errorf("info: parsing snapshot: %w", err)
	}
	printInfo(os.Stdout, snap)
	return nil
}

// printInfo renders the parts of a server snapshot an operator reaches
// for first: per-command traffic, latency percentiles, connections.
func printInfo(w *os.File, snap *telemetry.Snapshot) {
	fmt.Fprintf(w, "# server\nuptime_sec: %.1f\n", snap.UptimeSec)

	fmt.Fprintf(w, "\n# commands\n")
	const cmdPrefix = `kv_server_commands_total{cmd="`
	var cmds []string
	var total int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, cmdPrefix) && v > 0 {
			cmds = append(cmds, name)
			total += v
		}
	}
	sort.Slice(cmds, func(i, j int) bool {
		if snap.Counters[cmds[i]] != snap.Counters[cmds[j]] {
			return snap.Counters[cmds[i]] > snap.Counters[cmds[j]]
		}
		return cmds[i] < cmds[j]
	})
	for _, name := range cmds {
		cmd := strings.TrimSuffix(strings.TrimPrefix(name, cmdPrefix), `"}`)
		fmt.Fprintf(w, "%-10s %d\n", cmd+":", snap.Counters[name])
	}
	fmt.Fprintf(w, "%-10s %d\n", "total:", total)
	fmt.Fprintf(w, "%-10s %d\n", "errors:", snap.Counters["kv_server_command_errors_total"])

	if h, ok := snap.Histograms["kv_server_command_latency_ns"]; ok && h.Count > 0 {
		fmt.Fprintf(w, "\n# latency (batch mean)\n")
		for _, q := range []struct {
			label string
			q     float64
		}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}} {
			fmt.Fprintf(w, "%s: %.1fµs\n", q.label, h.Quantile(q.q)/1e3)
		}
		fmt.Fprintf(w, "mean: %.1fµs over %d commands\n", h.Mean()/1e3, h.Count)
	}

	fmt.Fprintf(w, "\n# connections\n")
	fmt.Fprintf(w, "active: %.0f\ntotal: %d\nparse_errors: %d\n",
		snap.Gauges["kv_server_connections_active"],
		snap.Counters["kv_server_connections_total"],
		snap.Counters["kv_server_parse_errors_total"])
	fmt.Fprintf(w, "bytes_in: %d\nbytes_out: %d\n",
		snap.Counters["kv_server_bytes_in_total"],
		snap.Counters["kv_server_bytes_out_total"])
}

func printReply(r kvstore.Reply, indent string) {
	switch r.Type {
	case kvstore.Array:
		fmt.Printf("%sarray of %d:\n", indent, len(r.Array))
		for i, el := range r.Array {
			fmt.Printf("%s%d) ", indent, i+1)
			printReply(el, "")
		}
	default:
		fmt.Printf("%s%s\n", indent, r.String())
	}
}
