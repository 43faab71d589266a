package main

import (
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"pareto/internal/cluster"
	"pareto/internal/energy"
	"pareto/internal/sim"
)

// simOpts carries the -sim-* flag values.
type simOpts struct {
	nodes     int
	policy    string
	arrivals  string
	rate      float64
	duration  float64
	cost      float64
	offset    float64
	seed      int64
	trace     string
	decisions string
}

// runSim simulates a paper-shaped cluster under the requested workload
// and policy, printing per-node and aggregate results plus the
// sustained event rate. With -sim-trace the workload is replayed from
// a recorded JSONL file instead of generated; with -sim-decisions the
// per-decision trace is written out for counterfactual analysis.
func runSim(opts simOpts) error {
	// Size the solar traces to cover the run window with a day of slack.
	hours := int((opts.offset+opts.duration)/3600) + 48
	cl, err := cluster.PaperCluster(opts.nodes, energy.DefaultPanel(), 172, hours)
	if err != nil {
		return err
	}
	var tasks []sim.Task
	source := ""
	if opts.trace != "" {
		f, err := os.Open(opts.trace)
		if err != nil {
			return err
		}
		tasks, err = sim.ReadTasks(f)
		f.Close()
		if err != nil {
			return err
		}
		source = fmt.Sprintf("trace %s", opts.trace)
	} else {
		tasks, err = sim.Generate(sim.GenConfig{
			Process:    opts.arrivals,
			Rate:       opts.rate,
			Duration:   opts.duration,
			CostMean:   opts.cost,
			CostSpread: 0.5,
			Seed:       opts.seed,
		})
		if err != nil {
			return err
		}
		source = fmt.Sprintf("%s arrivals, %.4g/s for %.4gs, seed %d", opts.arrivals, opts.rate, opts.duration, opts.seed)
	}
	policy, err := sim.PolicyByName(opts.policy)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := sim.Run(sim.Config{
		Cluster:         cl,
		Offset:          opts.offset,
		Policy:          policy,
		RecordDecisions: opts.decisions != "",
	}, tasks)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Printf("=== sim (%d nodes, %s, %s) ===\n", opts.nodes, opts.policy, source)
	const wh = 1.0 / 3600
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "node\ttasks\tbusy s\tgreen Wh\tdirty Wh\t")
	for i := range cl.Nodes {
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f\t%.2f\t\n",
			cl.Nodes[i].Name, res.NodeTasks[i], res.NodeTimes[i],
			res.NodeGreen[i]*wh, res.NodeDirty[i]*wh)
	}
	tw.Flush()
	fmt.Printf("makespan %.3f s · imbalance %.3f · green %.1f Wh · dirty %.1f Wh\n",
		res.Makespan, res.Imbalance(), res.GreenEnergy*wh, res.DirtyEnergy*wh)
	fmt.Printf("wait mean %.4f s · p50 %.4f s · p99 %.4f s · max %.4f s\n",
		res.MeanWaitSec, res.Wait.Quantile(0.5)/1e6, res.Wait.Quantile(0.99)/1e6, res.MaxWaitSec)
	fmt.Printf("%d tasks · %d events · %.1f ms wall · %.3g events/s\n",
		res.Tasks, res.Events, float64(elapsed.Microseconds())/1000,
		float64(res.Events)/elapsed.Seconds())

	if opts.decisions != "" {
		out := os.Stdout
		if opts.decisions != "-" {
			f, err := os.Create(opts.decisions)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		if err := sim.WriteDecisions(out, res.Decisions); err != nil {
			return err
		}
		if opts.decisions != "-" {
			fmt.Printf("wrote %d decisions to %s\n", len(res.Decisions), opts.decisions)
		}
	}
	return nil
}
