package cluster

import (
	"fmt"
	"testing"
	"time"

	"pareto/internal/energy"
	"pareto/internal/telemetry"
)

// TestRunDetailedTelemetry: an instrumented run must surface per-node
// busy time and dirty energy on the Result, and record a timed "run"
// span with one timed child per loaded node plus cumulative energy
// gauges whose green and dirty shares split each node's draw.
func TestRunDetailedTelemetry(t *testing.T) {
	c, err := PaperCluster(4, energy.DefaultPanel(), 172, 24)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	c.Telemetry = reg
	tasks := make([]func() (TaskReport, error), 4)
	for i := range tasks {
		tasks[i] = func() (TaskReport, error) {
			time.Sleep(time.Millisecond)
			return TaskReport{Cost: 1e6}, nil
		}
	}
	// Noon offset so the traces carry green power.
	res, err := runTasks(c, 12*3600, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NodeTimes) != 4 || len(res.NodeDirty) != 4 {
		t.Fatalf("per-node slices have %d times and %d dirty entries, want 4", len(res.NodeTimes), len(res.NodeDirty))
	}

	snap := reg.Snapshot()
	for i := range tasks {
		// The node gauges must partition the draw: green + dirty = watts × busy.
		node := fmt.Sprintf(`{node="%d"}`, i)
		total := c.Nodes[i].Power.Watts() * res.NodeTimes[i] / 3600
		green, dirty := snap.Gauges["energy_node_green_wh"+node], snap.Gauges["energy_node_dirty_wh"+node]
		if dirty != res.NodeDirty[i]/3600 {
			t.Errorf("node %d dirty gauge %v Wh, result %v J", i, dirty, res.NodeDirty[i])
		}
		if got := green + dirty; green < 0 || got < total*0.999 || got > total*1.001 {
			t.Errorf("node %d green %v + dirty %v Wh, want %v", i, green, dirty, total)
		}
	}
	if g := snap.Gauges["energy_green_wh_total"]; g <= 0 {
		t.Errorf("green energy = %v Wh at noon, want > 0", g)
	}
	run := snap.FindSpan("run")
	if run == nil {
		t.Fatal("no run span recorded")
	}
	if run.DurationMs <= 0 {
		t.Errorf("run span duration = %v, want > 0", run.DurationMs)
	}
	if len(run.Children) != 4 {
		t.Fatalf("run span has %d children, want 4", len(run.Children))
	}
	for _, child := range run.Children {
		if child.DurationMs <= 0 {
			t.Errorf("node span %q duration = %v, want > 0", child.Name, child.DurationMs)
		}
	}
	if snap.Counters["cluster_runs_total"] != 1 {
		t.Errorf("runs = %d, want 1", snap.Counters["cluster_runs_total"])
	}
	var wantTotal float64
	for i, busy := range res.NodeTimes {
		wantTotal += c.Nodes[i].Power.Watts() * busy / 3600
	}
	gotTotal := snap.Gauges["energy_dirty_wh_total"] + snap.Gauges["energy_green_wh_total"]
	if gotTotal < wantTotal*0.999 || gotTotal > wantTotal*1.001 {
		t.Errorf("energy gauges total %v Wh, want %v", gotTotal, wantTotal)
	}
}

// TestRunDetailedNilTelemetry: with no registry attached the per-node
// slices still populate, and an idle node books no time or energy.
func TestRunDetailedNilTelemetry(t *testing.T) {
	c, err := PaperCluster(2, energy.DefaultPanel(), 172, 24)
	if err != nil {
		t.Fatal(err)
	}
	tasks := []func() (TaskReport, error){
		func() (TaskReport, error) { return TaskReport{Cost: 1e5}, nil },
		nil,
	}
	res, err := runTasks(c, 0, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeTimes[0] <= 0 || res.NodeTimes[1] != 0 {
		t.Errorf("node times: %v", res.NodeTimes)
	}
	if res.NodeDirty[1] != 0 {
		t.Errorf("idle node dirty energy %v", res.NodeDirty[1])
	}
}
