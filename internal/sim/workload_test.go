package sim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestGenerateDeterministicPerSeed(t *testing.T) {
	for _, proc := range []string{Poisson, Uniform, Bursty} {
		cfg := GenConfig{Process: proc, Rate: 50, Duration: 20, CostMean: 1e5, CostSpread: 0.4, Seed: 11}
		a, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", proc, err)
		}
		b, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different streams", proc)
		}
		cfg.Seed = 12
		c, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds produced identical streams", proc)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	for _, proc := range []string{Poisson, Uniform, Bursty} {
		cfg := GenConfig{Process: proc, Rate: 100, Duration: 50, CostMean: 2e5, CostSpread: 0.5, FixedSec: 0.01, Seed: 3}
		tasks, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", proc, err)
		}
		if len(tasks) == 0 {
			t.Fatalf("%s: empty stream", proc)
		}
		// Mean arrival rate within a loose factor of the target. Bursty
		// alternates 3r and r/3 with equal mean sojourn, so its
		// long-run rate is (3r + r/3)/2 ≈ 1.67r.
		lo, hi := 0.5, 2.5
		got := float64(len(tasks)) / cfg.Duration
		if got < lo*cfg.Rate || got > hi*cfg.Rate {
			t.Errorf("%s: rate %v outside [%v, %v]", proc, got, lo*cfg.Rate, hi*cfg.Rate)
		}
		prev := -1.0
		for i, task := range tasks {
			if task.Arrival < prev {
				t.Fatalf("%s: arrival %d goes backwards (%v after %v)", proc, i, task.Arrival, prev)
			}
			prev = task.Arrival
			if task.Arrival < 0 || task.Arrival >= cfg.Duration {
				t.Fatalf("%s: arrival %v outside [0, %v)", proc, task.Arrival, cfg.Duration)
			}
			if math.Abs(task.Cost-cfg.CostMean) > cfg.CostSpread*cfg.CostMean+1e-9 {
				t.Fatalf("%s: cost %v outside spread", proc, task.Cost)
			}
			if task.Fixed != cfg.FixedSec || task.Pin != -1 {
				t.Fatalf("%s: task %+v", proc, task)
			}
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	good := GenConfig{Process: Poisson, Rate: 10, Duration: 1, CostMean: 1}
	for name, mutate := range map[string]func(*GenConfig){
		"process":    func(c *GenConfig) { c.Process = "zipf" },
		"rate":       func(c *GenConfig) { c.Rate = 0 },
		"rate-nan":   func(c *GenConfig) { c.Rate = math.NaN() },
		"duration":   func(c *GenConfig) { c.Duration = -1 },
		"cost":       func(c *GenConfig) { c.CostMean = 0 },
		"spread":     func(c *GenConfig) { c.CostSpread = 1 },
		"spread-neg": func(c *GenConfig) { c.CostSpread = -0.1 },
		"fixed":      func(c *GenConfig) { c.FixedSec = -1 },
	} {
		cfg := good
		mutate(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("%s: bad config accepted: %+v", name, cfg)
		}
	}
	if _, err := Generate(good); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tasks := []Task{
		{Arrival: 0, Cost: 1e6, Pin: -1},
		{Arrival: 1.25, Cost: 2e6, Fixed: 0.5, Pin: 3},
		{Arrival: 2.5, Cost: 0, Pin: 0},
	}
	var buf bytes.Buffer
	if err := WriteTasks(&buf, tasks); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTasks(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tasks) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, tasks)
	}
}

func TestReadTasksCommentsAndErrors(t *testing.T) {
	in := strings.NewReader(`# recorded 2026-08-07
{"arrival": 0.5, "cost": 100}

{"arrival": 1, "cost": 200, "fixed": 0.1, "node": 2}
`)
	tasks, err := ReadTasks(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []Task{
		{Arrival: 0.5, Cost: 100, Pin: -1},
		{Arrival: 1, Cost: 200, Fixed: 0.1, Pin: 2},
	}
	if !reflect.DeepEqual(tasks, want) {
		t.Errorf("got %+v, want %+v", tasks, want)
	}
	if _, err := ReadTasks(strings.NewReader("{broken")); err == nil {
		t.Error("malformed line accepted")
	}
	if _, err := ReadTasks(strings.NewReader("")); err != nil {
		t.Errorf("empty trace rejected: %v", err)
	}
}

// WriteTasks records a task stream to w in the JSON-lines trace
// format ReadTasks parses; ReadTasks(WriteTasks(tasks)) round-trips
// exactly. Recorded traces come from outside the repository, so only
// the round-trip test writes one.
func WriteTasks(w io.Writer, tasks []Task) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range tasks {
		rec := taskRecord{Arrival: tasks[i].Arrival, Cost: tasks[i].Cost, Fixed: tasks[i].Fixed}
		if tasks[i].Pin >= 0 {
			pin := tasks[i].Pin
			rec.Node = &pin
		}
		if err := enc.Encode(&rec); err != nil {
			return fmt.Errorf("sim: writing trace: %w", err)
		}
	}
	return bw.Flush()
}
