package sim

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
)

// resultBytes canonicalizes a Result for byte comparison: WallSec is
// real elapsed time and is the one field allowed to vary.
func resultBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	res.WallSec = 0
	buf, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// Identical seed + workload must produce byte-identical decision
// traces and Results at GOMAXPROCS 1 and NumCPU (the CI race job runs
// this under -race as well): the engine is single-threaded and the
// (time, seq) order leaves nothing to the runtime scheduler.
func TestRunDeterministicAcrossGOMAXPROCS(t *testing.T) {
	cl := paperCluster(t, 8, 172)
	tasks, err := Generate(GenConfig{Process: Bursty, Rate: 60, Duration: 40, CostMean: 3e5, CostSpread: 0.6, FixedSec: 0.002, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	run := func() []byte {
		pol, err := PolicyByName("weighted-scoring")
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{Cluster: cl, Offset: 6 * 3600, Policy: pol, RecordDecisions: true}, tasks)
		if err != nil {
			t.Fatal(err)
		}
		return resultBytes(t, res)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	single := run()
	again := run()
	runtime.GOMAXPROCS(runtime.NumCPU())
	multi := run()
	if !bytes.Equal(single, again) {
		t.Error("same-procs reruns differ")
	}
	if !bytes.Equal(single, multi) {
		t.Error("GOMAXPROCS=1 and NumCPU runs differ")
	}
}

// The full pipeline — generator → sim → decision trace — must be a
// pure function of the seed for every policy and process.
func TestRunDeterministicPerPolicyAndProcess(t *testing.T) {
	cl := paperCluster(t, 5, 200)
	for _, proc := range []string{Poisson, Uniform, Bursty} {
		tasks, err := Generate(GenConfig{Process: proc, Rate: 30, Duration: 25, CostMean: 4e5, CostSpread: 0.3, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range PolicyNames() {
			var prev []byte
			for trial := 0; trial < 3; trial++ {
				pol, err := PolicyByName(name)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(Config{Cluster: cl, Policy: pol, RecordDecisions: true}, tasks)
				if err != nil {
					t.Fatal(err)
				}
				got := resultBytes(t, res)
				if prev != nil && !bytes.Equal(prev, got) {
					t.Errorf("%s/%s: trial %d differs", proc, name, trial)
				}
				prev = got
			}
		}
	}
}

// Tasks handed to Run in shuffled order must still produce the same
// result when arrivals are distinct: Run sorts stably by arrival, so
// the input permutation is irrelevant.
func TestRunInputOrderIrrelevantForDistinctArrivals(t *testing.T) {
	cl := paperCluster(t, 4, 172)
	tasks, err := Generate(GenConfig{Process: Poisson, Rate: 50, Duration: 10, CostMean: 2e5, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	run := func(ts []Task) []byte {
		res, err := Run(Config{Cluster: cl, Policy: &GreedyStealing{}, RecordDecisions: true}, ts)
		if err != nil {
			t.Fatal(err)
		}
		return resultBytes(t, res)
	}
	want := run(tasks)
	reversed := make([]Task, len(tasks))
	for i, task := range tasks {
		reversed[len(tasks)-1-i] = task
	}
	if !bytes.Equal(want, run(reversed)) {
		t.Error("reversed input changed the result")
	}
}
