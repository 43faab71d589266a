// Command benchjson converts `go test -bench` text output into a JSON
// array so CI can archive benchmark results as a machine-readable
// artifact and diff them across runs.
//
// Usage:
//
//	go test ./internal/kvstore -run '^$' -bench . -benchmem | benchjson -o BENCH_kvstore.json
//	go test -bench . ./... | benchjson          # JSON to stdout
//
// Each benchmark line becomes one object:
//
//	{
//	  "name": "ServerPipelinedSetGet",
//	  "gomaxprocs": 4,
//	  "iters": 235507,
//	  "ns_per_op": 522.6,
//	  "bytes_per_op": 42,
//	  "allocs_per_op": 1,
//	  "ops_per_sec": 1913567
//	}
//
// gomaxprocs is parsed from the -N suffix go test appends when the
// benchmark ran with GOMAXPROCS != 1 (absent suffix = 1). ops_per_sec
// prefers an explicit "ops/s" custom metric (b.ReportMetric) and falls
// back to 1e9 / ns_per_op. Any other custom metric lands under
// "metrics" by its unit ("shipped_B/op": 15080). Every input line
// passes through untouched to stderr so piping through benchjson never
// hides test output.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

type benchResult struct {
	Name       string  `json:"name"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Iters      int64   `json:"iters"`
	NsPerOp    float64 `json:"ns_per_op"`
	BytesPerOp int64   `json:"bytes_per_op"`
	AllocsPer  int64   `json:"allocs_per_op"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	// Metrics holds the b.ReportMetric values of any other unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	out := flag.String("o", "", "write JSON to this file (default: stdout)")
	flag.Parse()

	var results []benchResult
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(os.Stderr, line)
		if r, ok := parseBenchLine(line); ok {
			results = append(results, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading stdin: %v\n", err)
		os.Exit(1)
	}
	if results == nil {
		results = []benchResult{} // emit [] rather than null
	}
	buf, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// parseBenchLine parses one "BenchmarkName-N  iters  value unit ..."
// line. Returns ok=false for anything that is not a benchmark result.
func parseBenchLine(line string) (benchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return benchResult{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	procs := 1
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil && n > 0 {
			procs = n
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchResult{}, false
	}
	r := benchResult{Name: name, GoMaxProcs: procs, Iters: iters}
	// Remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchResult{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPer = int64(v)
		case "ops/s":
			r.OpsPerSec = v
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[fields[i+1]] = v
		}
	}
	if r.NsPerOp == 0 {
		return benchResult{}, false
	}
	if r.OpsPerSec == 0 {
		r.OpsPerSec = 1e9 / r.NsPerOp
	}
	return r, true
}
