package energy

import (
	"math"
	"testing"
)

// nightTrace returns a generated trace whose leading steps carry zero
// power (it starts at local solar midnight, so the sun is down for the
// first hours of day one).
func nightTrace(t *testing.T, hours int) *Trace {
	t.Helper()
	loc := GoogleDatacenterLocations()[0]
	tr, err := GenerateTrace(loc, DefaultPanel(), 172, hours)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Power[0] != 0 || tr.Power[1] != 0 {
		t.Fatalf("trace does not start in darkness: %v", tr.Power[:4])
	}
	return tr
}

// TestZeroIrradianceWindow: across a window where the trace supplies
// no green power, the grid covers the entire draw and the green
// integral is exactly zero.
func TestZeroIrradianceWindow(t *testing.T) {
	tr := nightTrace(t, 48)
	const watts = 300.0
	const dur = 2 * 3600.0
	if got := tr.Energy(0, dur); got != 0 {
		t.Errorf("green energy over dark window = %v, want 0", got)
	}
	if got := tr.MeanPower(0, dur); got != 0 {
		t.Errorf("mean green power over dark window = %v, want 0", got)
	}
	if got, want := DirtyEnergy(watts, tr, 0, dur), watts*dur; got != want {
		t.Errorf("dirty energy over dark window = %v, want %v", got, want)
	}
}

// TestTraceHoldPastEnd: offsets beyond the trace hold the final step's
// power, consistently across Energy and DirtyEnergy.
func TestTraceHoldPastEnd(t *testing.T) {
	// A synthetic trace makes the held value unambiguous.
	tr := &Trace{StepSeconds: 3600, Power: []float64{0, 100, 250}}
	end := float64(len(tr.Power)) * tr.StepSeconds
	last := tr.Power[len(tr.Power)-1]

	const dur = 1800.0
	if got, want := tr.Energy(end+7200, dur), last*dur; got != want {
		t.Errorf("Energy past end = %v, want %v", got, want)
	}
	// Draw above the held supply: the shortfall is dirty.
	const watts = 400.0
	if got, want := DirtyEnergy(watts, tr, end+7200, dur), (watts-last)*dur; got != want {
		t.Errorf("DirtyEnergy past end = %v, want %v", got, want)
	}
	// A window straddling the end: in-trace part plus held tail.
	from := end - 1800
	wantGreen := last*1800 + last*1800
	if got := tr.Energy(from, 3600); got != wantGreen {
		t.Errorf("Energy straddling end = %v, want %v", got, wantGreen)
	}
}

// TestTraceGenerationWrapsYear: a trace starting late in the year rolls
// the solar geometry and weather process over the day-365 boundary
// without blowing up, and stays deterministic.
func TestTraceGenerationWrapsYear(t *testing.T) {
	loc := GoogleDatacenterLocations()[1]
	tr, err := GenerateTrace(loc, DefaultPanel(), 365, 72)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range tr.Power {
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			t.Fatalf("step %d power = %v", i, p)
		}
	}
	// Day two of the trace is day 1 of the next year: the sun still
	// rises — some mid-trace step must carry power.
	if peak(tr) <= 0 {
		t.Error("no daylight across the year boundary")
	}
	again, err := GenerateTrace(loc, DefaultPanel(), 365, 72)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Power {
		if tr.Power[i] != again.Power[i] {
			t.Fatalf("step %d not deterministic: %v vs %v", i, tr.Power[i], again.Power[i])
		}
	}
}

// greenUsed integrates min(watts, green) over [from, from+dur) against
// the trace directly — an independent reimplementation of the supply
// actually consumed, stepping exactly on trace boundaries.
func greenUsed(watts float64, tr *Trace, from, dur float64) float64 {
	var used float64
	end := from + dur
	cur := from
	if cur < 0 {
		cur = 0
	}
	for cur < end {
		i := int(cur / tr.StepSeconds)
		green := tr.Power[len(tr.Power)-1]
		stepEnd := end
		if i < len(tr.Power) {
			green = tr.Power[i]
			stepEnd = float64(i+1) * tr.StepSeconds
			if stepEnd > end {
				stepEnd = end
			}
		}
		if green > watts {
			green = watts
		}
		used += green * (stepEnd - cur)
		cur = stepEnd
	}
	return used
}

// TestOffsetAlignmentIdentity: for any trace offset — step-aligned,
// mid-step, boundary-straddling, past the end — the dirty accounting in
// power.go and the green trace in solar.go must partition the draw:
// dirty + min(watts, green) integrates to exactly watts·dur.
func TestOffsetAlignmentIdentity(t *testing.T) {
	tr := nightTrace(t, 48)
	const watts = 350.0
	const dur = 6 * 3600.0
	offsets := []float64{
		0,                // trace start, step-aligned
		12 * 3600,        // noon, step-aligned
		12*3600 + 17,     // mid-step
		10*3600 + 1799.5, // fractional, straddles many boundaries
		47 * 3600,        // last step, runs past the end
		60 * 3600,        // entirely past the end
	}
	for _, off := range offsets {
		dirty := DirtyEnergy(watts, tr, off, dur)
		used := greenUsed(watts, tr, off, dur)
		want := watts * dur
		if got := dirty + used; math.Abs(got-want) > want*1e-9 {
			t.Errorf("offset %v: dirty %v + green-used %v = %v, want %v", off, dirty, used, got, want)
		}
	}
}

// TestNegativeOffsets: time before the trace has no green supply —
// Energy credits nothing and DirtyEnergy bills the full draw — so the
// partition identity extends to negative offsets too, including the
// fractional ones int truncation used to misfile into step 0.
func TestNegativeOffsets(t *testing.T) {
	tr := &Trace{StepSeconds: 3600, Power: []float64{200, 200, 200}}
	const watts = 300.0

	// Window entirely before the trace.
	if got := tr.Energy(-7200, 3600); got != 0 {
		t.Errorf("pre-trace green = %v, want 0", got)
	}
	if got, want := DirtyEnergy(watts, tr, -7200, 3600), watts*3600.0; got != want {
		t.Errorf("pre-trace dirty = %v, want %v", got, want)
	}
	// Fractional negative offset straddling t=0: half the window dark,
	// half supplied at 200 W.
	if got, want := tr.Energy(-1800, 3600), 200*1800.0; got != want {
		t.Errorf("straddling green = %v, want %v", got, want)
	}
	if got, want := DirtyEnergy(watts, tr, -1800, 3600), watts*1800+(watts-200)*1800; got != want {
		t.Errorf("straddling dirty = %v, want %v", got, want)
	}
}
