package bench

import (
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pareto/internal/core"
)

// rowsFor filters rows by strategy and partition count.
func rowFor(rows []StrategyRow, s core.Strategy, p int) *StrategyRow {
	for i := range rows {
		if rows[i].Strategy == s && rows[i].Partitions == p {
			return &rows[i]
		}
	}
	return nil
}

func TestTable1(t *testing.T) {
	rep, err := Table1(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "table1" || len(rep.Text) == 0 {
		t.Error("empty report")
	}
	t.Logf("\n%s", rep.Text)
}

func TestFig3TextMiningShape(t *testing.T) {
	rep, err := Fig3(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep.Text)
	for _, p := range SmallScale().PartitionCounts {
		base := rowFor(rep.Rows, core.Stratified, p)
		het := rowFor(rep.Rows, core.HetAware, p)
		hea := rowFor(rep.Rows, core.HetEnergyAware, p)
		if base == nil || het == nil || hea == nil {
			t.Fatalf("missing rows at p=%d", p)
		}
		// Headline shape: Het-Aware is fastest.
		if het.TimeSec >= base.TimeSec {
			t.Errorf("p=%d: Het-Aware %.2fs not below Stratified %.2fs", p, het.TimeSec, base.TimeSec)
		}
		// The Savasere result quality is identical across strategies at
		// the same partition count — candidates may differ, but final
		// frequent sets must match.
		if base.Quality["frequent"] != het.Quality["frequent"] ||
			base.Quality["frequent"] != hea.Quality["frequent"] {
			t.Errorf("p=%d: frequent counts differ: %v / %v / %v",
				p, base.Quality["frequent"], het.Quality["frequent"], hea.Quality["frequent"])
		}
	}
}

func TestFig2TreeMiningShape(t *testing.T) {
	if testing.Short() {
		t.Skip("tree mining sweep in short mode")
	}
	rep, err := Fig2(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep.Text)
	// Two datasets × counts × 3 strategies.
	want := 2 * len(SmallScale().PartitionCounts) * 3
	if len(rep.Rows) != want {
		t.Fatalf("%d rows, want %d", len(rep.Rows), want)
	}
	// Het-Aware beats the baseline on makespan in most configurations.
	wins, total := 0, 0
	for i := 0; i+2 < len(rep.Rows); i += 3 {
		base, het := rep.Rows[i], rep.Rows[i+1]
		total++
		if het.TimeSec < base.TimeSec {
			wins++
		}
	}
	if wins*2 < total {
		t.Errorf("Het-Aware won only %d of %d configurations", wins, total)
	}
}

func TestFig4GraphCompressionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("graph sweep in short mode")
	}
	rep, err := Fig4(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep.Text)
	for i := 0; i+2 < len(rep.Rows); i += 3 {
		base, het, hea := rep.Rows[i], rep.Rows[i+1], rep.Rows[i+2]
		if het.TimeSec >= base.TimeSec {
			t.Errorf("p=%d: Het-Aware %.2fs not below Stratified %.2fs",
				het.Partitions, het.TimeSec, base.TimeSec)
		}
		// Quality must not degrade: ratios within 10% of the baseline
		// (§V-C2: "heterogeneity aware schemes match the compression
		// ratio of the baseline").
		for _, r := range []StrategyRow{het, hea} {
			if r.Quality["compression-ratio"] < 0.9*base.Quality["compression-ratio"] {
				t.Errorf("p=%d %v ratio %.2f degraded vs baseline %.2f",
					r.Partitions, r.Strategy, r.Quality["compression-ratio"],
					base.Quality["compression-ratio"])
			}
		}
	}
}

func TestTables2And3LZ77(t *testing.T) {
	if testing.Short() {
		t.Skip("lz77 tables in short mode")
	}
	for _, gen := range []func(Scale) (*Report, error){Table2, Table3} {
		rep, err := gen(SmallScale())
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("\n%s", rep.Text)
		if len(rep.Rows) != 3 {
			t.Fatalf("%d rows", len(rep.Rows))
		}
		base := rep.Rows[0]
		for _, r := range rep.Rows[1:] {
			if r.Quality["compression-ratio"] < 0.85*base.Quality["compression-ratio"] {
				t.Errorf("%v LZ77 ratio %.2f degraded vs %.2f",
					r.Strategy, r.Quality["compression-ratio"], base.Quality["compression-ratio"])
			}
		}
		// The paper's point: LZ77 is I/O-bound, so heterogeneity-aware
		// sizing moves the needle far less than it does for mining.
		het := rep.Rows[1]
		gain := Improvement(base.TimeSec, het.TimeSec)
		if gain > 0.45 || gain < -0.45 {
			t.Errorf("LZ77 Het-Aware gain %.0f%% not muted", 100*gain)
		}
	}
}

func TestFig5FrontierShape(t *testing.T) {
	if testing.Short() {
		t.Skip("frontier sweep in short mode")
	}
	rep, err := Fig5(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep.Text)
	// Per workload: 8 α points + 1 baseline.
	per := len(fig5Alphas()) + 1
	if len(rep.Frontier) != 3*per {
		t.Fatalf("%d frontier rows, want %d", len(rep.Frontier), 3*per)
	}
	for w := 0; w < 3; w++ {
		rows := rep.Frontier[w*per : (w+1)*per]
		pareto := rows[:len(rows)-1]
		base := rows[len(rows)-1]
		if !base.Baseline {
			t.Fatal("last row not the baseline")
		}
		// Dirty energy must be non-increasing along the sweep (α from
		// 1 toward 0 shifts weight onto the energy objective). Measured
		// *time* is allowed to be non-monotone at small scale: mining
		// cost is non-linear in partition size (candidate-set effects),
		// which the paper's LP — linear in data size — cannot see.
		for i := 1; i < len(pareto); i++ {
			if pareto[i].DirtyJ > pareto[i-1].DirtyJ*(1+1e-6)+1e-6 {
				t.Errorf("workload %d: dirty energy rose from α=%v (%.4f) to α=%v (%.4f)",
					w, pareto[i-1].Alpha, pareto[i-1].DirtyJ, pareto[i].Alpha, pareto[i].DirtyJ)
			}
		}
		// The sweep must actually trade: the energy-lean end consumes
		// strictly less dirty energy than the α=1 end.
		if !(pareto[len(pareto)-1].DirtyJ < pareto[0].DirtyJ) {
			t.Errorf("workload %d: sweep did not reduce dirty energy (%.4f → %.4f)",
				w, pareto[0].DirtyJ, pareto[len(pareto)-1].DirtyJ)
		}
		// The baseline is not Pareto-efficient (paper Fig 5: it sits
		// off the frontier): it must not dominate any frontier point,
		// and at least one frontier point must be strictly faster.
		faster := false
		for _, r := range pareto {
			if base.TimeSec <= r.TimeSec && base.DirtyJ <= r.DirtyJ &&
				(base.TimeSec < r.TimeSec || base.DirtyJ < r.DirtyJ) &&
				base.TimeSec < r.TimeSec*0.99 && base.DirtyJ < r.DirtyJ*0.99 {
				t.Errorf("workload %d: baseline strictly dominates frontier point α=%v", w, r.Alpha)
			}
			if r.TimeSec < base.TimeSec {
				faster = true
			}
		}
		if !faster {
			t.Errorf("workload %d: no frontier point beats the baseline's time %.3f",
				w, base.TimeSec)
		}
	}
}

// TestTablesPrintSubJouleDirtyEnergy: a row that drew 0.4 J of dirty
// energy prints a non-zero value in both tables, in joules.
func TestTablesPrintSubJouleDirtyEnergy(t *testing.T) {
	tables := map[string]string{
		"FormatRows":     FormatRows([]StrategyRow{{Strategy: core.HetAware, Partitions: 4, Alpha: 1, TimeSec: 0.007, DirtyJ: 0.4}}),
		"FormatFrontier": FormatFrontier([]FrontierRow{{Alpha: 1, TimeSec: 0.007, DirtyJ: 0.4}}),
	}
	for name, text := range tables {
		lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
		head, row := strings.Fields(lines[0]), strings.Fields(lines[1])
		col := slices.Index(head, "dirty(J)")
		if col < 0 {
			t.Fatalf("%s: no dirty(J) column in %q", name, lines[0])
		}
		if v, err := strconv.ParseFloat(row[col], 64); err != nil || v != 0.4 {
			t.Errorf("%s: dirty column reads %q, want 0.400:\n%s", name, row[col], text)
		}
	}
}

// TestFrontierLabelsDominatedRows labels hand-built sweep rows and
// checks every printed label against a pairwise dominance check written
// from the definition: a row is dominated when another row of the block,
// the baseline included, is no worse on both axes and better on one.
func TestFrontierLabelsDominatedRows(t *testing.T) {
	rows := []FrontierRow{
		{Alpha: 1, TimeSec: 10, DirtyJ: 900},
		{Alpha: 0.999, TimeSec: 19, DirtyJ: 1},  // beaten by α = 0.99
		{Alpha: 0.99, TimeSec: 10, DirtyJ: 0.5}, // beats α = 1 on energy alone
		{Alpha: 0.95, TimeSec: 9, DirtyJ: 2000}, // fastest: stays
		{Alpha: 0.9, TimeSec: 12, DirtyJ: 0.5},  // tied energy, slower
		{Alpha: 0.5, TimeSec: 30, DirtyJ: 0.25}, // faster than the baseline: stays
		{Alpha: 0.1, TimeSec: 30, DirtyJ: 0.25}, // equal to α = 0.5: neither dominates
		{Alpha: 0, TimeSec: 40, DirtyJ: 0.22},   // beaten by the baseline only
		{TimeSec: 35, DirtyJ: 0.2, Baseline: true},
	}
	markDominated(rows)
	lines := strings.Split(strings.TrimSuffix(FormatFrontier(rows), "\n"), "\n")[1:]
	if len(lines) != len(rows) {
		t.Fatalf("%d table rows, want %d", len(lines), len(rows))
	}
	dominated := 0
	for i, r := range rows {
		want := "pareto"
		for j, o := range rows {
			if j != i && o.TimeSec <= r.TimeSec && o.DirtyJ <= r.DirtyJ && (o.TimeSec < r.TimeSec || o.DirtyJ < r.DirtyJ) {
				want = "dominated"
			}
		}
		if r.Dominated != (want == "dominated") {
			t.Errorf("row %d: Dominated = %v, want %v", i, r.Dominated, !r.Dominated)
		}
		if want == "dominated" {
			dominated++
		}
		if r.Baseline {
			want = "stratified-baseline"
		}
		if f := strings.Fields(lines[i]); f[len(f)-1] != want {
			t.Errorf("row %d (α = %v) labelled %q, want %q", i, r.Alpha, f[len(f)-1], want)
		}
	}
	if dominated != 4 {
		t.Fatalf("fixture has %d dominated rows, want 4", dominated)
	}
}

func TestFig6SupportSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("support sweep in short mode")
	}
	rep, err := Fig6(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep.Text)
	per := len(fig5Alphas()) + 1
	if len(rep.Frontier) != 4*per {
		t.Fatalf("%d frontier rows, want %d", len(rep.Frontier), 4*per)
	}
}

func TestRunExperimentDispatch(t *testing.T) {
	if _, err := RunExperiment("nope", SmallScale()); err == nil {
		t.Error("unknown experiment accepted")
	}
	rep, err := RunExperiment("table1", SmallScale())
	if err != nil || rep.ID != "table1" {
		t.Errorf("dispatch failed: %v", err)
	}
	if len(Experiments()) != 9 {
		t.Errorf("%d experiments registered", len(Experiments()))
	}
}

// Improvement returns the relative reduction of b versus a: (a−b)/a.
func Improvement(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (a - b) / a
}

func TestImprovement(t *testing.T) {
	if Improvement(0, 5) != 0 {
		t.Error("zero base")
	}
	if Improvement(10, 5) != 0.5 {
		t.Error("halving is 50%")
	}
}

// docs/results-small.txt is `paretobench -exp all -scale small` as
// recorded; every experiment is seeded, so each block under an
// `=== id (…) ===` header must come back byte for byte. overhead is
// left out: it prints wall-clock stage timings.
func TestSmallScaleMatchesRecorded(t *testing.T) {
	if testing.Short() {
		t.Skip("every small-scale experiment in short mode")
	}
	recorded, err := os.ReadFile("../../docs/results-small.txt")
	if err != nil {
		t.Fatal(err)
	}
	header := regexp.MustCompile(`(?m)^=== (\w+) \(.*\) ===\n`)
	blocks := make(map[string]string)
	heads := header.FindAllSubmatchIndex(recorded, -1)
	for i, h := range heads {
		end := len(recorded)
		if i+1 < len(heads) {
			end = heads[i+1][0]
		}
		blocks[string(recorded[h[2]:h[3]])] = string(recorded[h[1]:end])
	}
	for _, id := range Experiments() {
		if id == "overhead" {
			continue
		}
		want, ok := blocks[id]
		if !ok {
			t.Errorf("%s: no recorded block", id)
			continue
		}
		rep, err := RunExperiment(id, SmallScale())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		// paretobench prints Text and then a newline.
		if got := rep.Text + "\n"; got != want {
			t.Errorf("%s differs from docs/results-small.txt:\n--- got\n%s--- recorded\n%s", id, got, want)
		}
	}
}
