// Command benchmark is the repo's end-to-end benchmark: five workloads
// from records to results, fourteen end-to-end metrics, and a traced
// pass that attributes them to layers. See README.md in this directory.
//
//	go run ./benchmark --workload tree_mining_mem --seed 1 --seconds 10 --trace 0
//	go run ./benchmark -seed 1 -out a.json        # all five, timed then traced
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
)

// fullSizes are the benchmark's sizes. Repetition counts are calibrated
// for the 10-second run length BENCHMARK.json asks for.
var fullSizes = sizes{
	Setups: 2, MaxSetups: 9,
	TreeScale: 1.0, TreeReps: 5,
	TextScale: 0.10, TextReps: 5,
	LZScale: 0.03, LZReps: 7,
	ReplanDocs: 50_000, ReplanTopics: 32, ReplanOps: 150, ReplanTracedOps: 50,
	ReplanBatch: 100, ReplanBudget: 2000,
	FrontierNodes: 64, FrontierTotal: 1_000_000, FrontierRequests: 2400, FrontierTracedRequests: 600,
}

var workloads = []workload{treeWorkload, textWorkload, lzWorkload, replanWorkload, frontierWorkload}

// envInfo records where a results file was measured.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	// TmpFS is the filesystem the AOF files of lz77_durable live on: the
	// working directory's.
	TmpFS string `json:"tmp_fs"`
}

func currentEnv() envInfo {
	return envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		TmpFS: fsName("."),
	}
}

// fsName names the filesystem holding path by its statfs magic number.
func fsName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (default: all five)")
	seed := fs.Int64("seed", 1, "seed of the input generators")
	seconds := fs.Int("seconds", 10, "run length the repetition counts are scaled to")
	trace := fs.Int("trace", 1, "0: timed pass only; 1: timed pass, then traced pass")
	out := fs.String("out", "", "write the results file here")
	spansOut := fs.String("spans", "", "write the traced pass's spans here")
	cmp := fs.Bool("compare", false, "compare two results files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		return compareMain(fs.Args(), stdout, stderr)
	}
	if *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "benchmark: --seconds must be in [1,60], --trace 0 or 1, and there are no positional arguments")
		return 2
	}
	// Everything runs in one process on at most four cores; every worker
	// count the benchmark passes is GOMAXPROCS.
	if runtime.NumCPU() > 4 {
		runtime.GOMAXPROCS(4)
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
	}
	rf := &resultsFile{Env: currentEnv(), Seed: *seed, Seconds: *seconds, Traced: *trace == 1, Sizes: fullSizes}
	var allSpans []span
	status := 0
	for _, w := range selected {
		res, spans, err := measure(w, *seed, fullSizes, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		printResult(stdout, res)
		if res.Failed > 0 {
			status = 1
		}
		rf.Workloads = append(rf.Workloads, *res)
		allSpans = append(allSpans, spans...)
		fmt.Fprintln(stdout, resultLine(res, *trace == 1))
	}
	if *out != "" {
		if err := writeResults(*out, rf); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if *spansOut != "" {
		if err := writeSpans(*spansOut, allSpans); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return status
}

func compareMain(paths []string, stdout, stderr io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(stderr, "benchmark: -compare needs two results files")
		return 2
	}
	a, err := readResults(paths[0])
	if err == nil {
		var b *resultsFile
		if b, err = readResults(paths[1]); err == nil {
			var n int
			if n, err = compare(stdout, a, b); err == nil {
				if n > 0 {
					fmt.Fprintf(stdout, "%d end-to-end metrics DISAGREE\n", n)
					return 1
				}
				fmt.Fprintln(stdout, "every end-to-end metric agrees")
				return 0
			}
		}
	}
	fmt.Fprintf(stderr, "benchmark: %v\n", err)
	return 2
}

// overheadBase is the metric the tracing overhead is measured on: the
// looped workloads run fewer operations in the traced pass, so their
// passes are compared per operation.
func overheadBase(workload string) string {
	if workload == wReplan || workload == wFrontier {
		return "op_ms_p50"
	}
	return "e2e_s"
}

// measure runs the timed pass and, if asked, the traced pass of one
// workload, and folds both into one result.
func measure(w workload, seed int64, sz sizes, seconds int, traced bool) (*workloadResult, []span, error) {
	acct := &account{}
	timed, err := runPass(w, seed, sz, seconds, false, acct)
	if err != nil {
		return nil, nil, err
	}
	res := &workloadResult{Name: w.name, Why: w.why, Reps: len(timed.samples)}
	// setup_s is one value per set-up, not per repetition: hand it to
	// summarize as samples of its own.
	samples := append([]sample(nil), timed.samples...)
	for _, v := range timed.setups {
		samples = append(samples, sample{"setup_s": v})
	}
	layerSamples := timed.samples
	var spans []span
	if traced {
		tp, err := runPass(w, seed, sz, seconds, true, acct)
		if err != nil {
			return nil, nil, err
		}
		spans = tp.spans
		base := overheadBase(w.name)
		var tv, bv []float64
		for _, s := range tp.samples {
			tv = append(tv, s[base])
		}
		for _, s := range timed.samples {
			bv = append(bv, s[base])
		}
		// A per-layer metric comes from the timed pass when that pass
		// can measure it, and from the traced pass otherwise.
		carried := map[string]bool{}
		for _, s := range timed.samples {
			for k := range s {
				carried[k] = true
			}
		}
		layerSamples = append([]sample(nil), timed.samples...)
		for _, s := range tp.samples {
			only := sample{}
			for k, v := range s {
				if !carried[k] {
					only[k] = v
				}
			}
			layerSamples = append(layerSamples, only)
		}
		layerSamples = append(layerSamples, sample{"trace.overhead_frac": (median(tv) - median(bv)) / median(bv)})
	}
	res.Attempted, res.Failed, res.Failures = acct.attempted, acct.failed, acct.failures
	samples = append(samples, sample{"fail_frac": float64(acct.failed) / float64(acct.attempted)})
	res.EndToEnd = summarize(endToEnd, w.name, samples)
	if traced {
		res.PerLayer = summarize(perLayer, w.name, layerSamples)
	}
	if e2e, ok := res.find("e2e_s"); ok && e2e.Value > 0 {
		res.RecordsPerS = timed.samples[0]["_records"] / e2e.Value
	}
	return res, spans, nil
}

// printResult prints one line per metric: workload, metric, value, unit
// and sample count, with the extremes beside the median.
func printResult(w io.Writer, res *workloadResult) {
	for _, group := range [][]metricValue{res.EndToEnd, res.PerLayer} {
		for _, m := range group {
			fmt.Fprintf(w, "%s %s %.6g %s n=%d", res.Name, m.Name, m.Value, m.Unit, m.N)
			if m.N > 1 {
				fmt.Fprintf(w, " min=%.6g max=%.6g", m.Min, m.Max)
			}
			if m.Name == "e2e_s" {
				fmt.Fprintf(w, " records_per_s=%.6g", res.RecordsPerS)
			}
			if m.Name == "fail_frac" {
				fmt.Fprintf(w, " failed=%d attempted=%d", res.Failed, res.Attempted)
			}
			fmt.Fprintln(w)
		}
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "%s FAILED %s\n", res.Name, f)
	}
}

// resultLine is the last line of a run: one JSON object with the keys
// correct, attempted, failed and metrics. With tracing off the metrics
// are the end-to-end metrics every workload defines; with tracing on
// they are all the others, and one this workload does not define reads
// 0 there.
func resultLine(res *workloadResult, traced bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := contractEndToEnd()
	if traced {
		defs = contractPerLayer()
	}
	metrics := map[string]mv{}
	for _, d := range defs {
		m, _ := res.find(d.Name)
		metrics[d.Name] = mv{Value: m.Value, Unit: d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err) // only a non-finite float could fail here
	}
	return string(line)
}
