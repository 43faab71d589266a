package energy

import (
	"math"
	"testing"
)

func TestSolarDeclinationRange(t *testing.T) {
	for d := 1; d <= 365; d++ {
		dec := SolarDeclinationDeg(d)
		if dec < -23.46 || dec > 23.46 {
			t.Fatalf("day %d: declination %v out of ±23.45", d, dec)
		}
	}
	// Summer solstice (~day 172) should be near +23.45; winter (~355) near −23.45.
	if SolarDeclinationDeg(172) < 23.3 {
		t.Errorf("solstice declination %v", SolarDeclinationDeg(172))
	}
	if SolarDeclinationDeg(355) > -23.3 {
		t.Errorf("winter declination %v", SolarDeclinationDeg(355))
	}
}

func TestCosZenith(t *testing.T) {
	// Midnight: sun below horizon → 0.
	if cz := CosZenith(40, 100, 0); cz != 0 {
		t.Errorf("midnight cos zenith %v", cz)
	}
	// Noon exceeds morning.
	noon := CosZenith(40, 172, 12)
	morning := CosZenith(40, 172, 8)
	if noon <= morning {
		t.Errorf("noon %v not above morning %v", noon, morning)
	}
	// Equator on equinox at noon: sun almost overhead.
	if cz := CosZenith(0, 81, 12); cz < 0.99 {
		t.Errorf("equinox equator noon cos zenith %v", cz)
	}
	// Bounds.
	for h := 0.0; h <= 24; h += 0.5 {
		if cz := CosZenith(45, 200, h); cz < 0 || cz > 1 {
			t.Fatalf("cos zenith %v out of [0,1]", cz)
		}
	}
}

func TestClearSkyIrradiance(t *testing.T) {
	if g := ClearSkyIrradiance(40, 172, 12); g < 800 || g > 1100 {
		t.Errorf("summer noon GHI = %v, want ~900–1000 W/m²", g)
	}
	if g := ClearSkyIrradiance(40, 172, 2); g != 0 {
		t.Errorf("night GHI = %v, want 0", g)
	}
	// Winter noon < summer noon at mid latitude.
	if ClearSkyIrradiance(45, 355, 12) >= ClearSkyIrradiance(45, 172, 12) {
		t.Error("winter GHI should be below summer GHI")
	}
}

func TestCloudAttenuation(t *testing.T) {
	if a := CloudAttenuation(0); a != 1 {
		t.Errorf("clear sky attenuation %v, want 1", a)
	}
	if a := CloudAttenuation(1); math.Abs(a-0.25) > 1e-12 {
		t.Errorf("overcast attenuation %v, want 0.25", a)
	}
	if CloudAttenuation(0.5) <= CloudAttenuation(0.9) {
		t.Error("attenuation must decrease with cloud cover")
	}
	// Clamping.
	if CloudAttenuation(-1) != 1 || math.Abs(CloudAttenuation(2)-0.25) > 1e-12 {
		t.Error("attenuation must clamp w into [0,1]")
	}
}

func TestCloudModelDeterministicAndBounded(t *testing.T) {
	loc := GoogleDatacenterLocations()[0]
	m := NewCloudModel(loc)
	a := m.HourlySeries(100, 0, 72)
	b := m.HourlySeries(100, 0, 72)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("cloud series not deterministic")
		}
		if a[i] < 0 || a[i] > 1 {
			t.Fatalf("cloud cover %v out of [0,1]", a[i])
		}
	}
	// Different seeds → different series.
	loc2 := loc
	loc2.CloudSeed++
	c := NewCloudModel(loc2).HourlySeries(100, 0, 72)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds gave identical weather")
	}
}

func TestSeasonalMeanBounds(t *testing.T) {
	m := NewCloudModel(Location{MeanCloud: 0.95})
	for d := 1; d <= 365; d += 30 {
		if s := m.SeasonalMean(d); s < 0 || s > 1 {
			t.Fatalf("seasonal mean %v out of bounds", s)
		}
	}
}

func TestGenerateTraceShape(t *testing.T) {
	loc := GoogleDatacenterLocations()[1]
	tr, err := GenerateTrace(loc, DefaultPanel(), 172, 48)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Power) != 48 {
		t.Fatalf("trace length %d", len(tr.Power))
	}
	if tr.StepSeconds != 3600 {
		t.Errorf("step %v s, want hourly", tr.StepSeconds)
	}
	// Nights dark, days lit.
	if tr.Power[2] != 0 {
		t.Errorf("2am power %v, want 0", tr.Power[2])
	}
	if tr.Power[12] <= 0 {
		t.Errorf("noon power %v, want > 0", tr.Power[12])
	}
	if p := peak(tr); p <= 0 || p > 1100*3.0*0.20*0.85 {
		t.Errorf("peak %v implausible", p)
	}
}

func TestGenerateTraceErrors(t *testing.T) {
	loc := GoogleDatacenterLocations()[0]
	if _, err := GenerateTrace(loc, Panel{}, 1, 24); err == nil {
		t.Error("invalid panel accepted")
	}
	if _, err := GenerateTrace(loc, DefaultPanel(), 1, 0); err == nil {
		t.Error("zero hours accepted")
	}
}

func TestTraceEnergyIntegration(t *testing.T) {
	tr := &Trace{StepSeconds: 3600, Power: []float64{100, 200, 300}}
	// Full first hour: 100 W × 3600 s.
	if e := tr.Energy(0, 3600); math.Abs(e-360000) > 1e-6 {
		t.Errorf("first hour energy %v", e)
	}
	// Half of hour 0 plus half of hour 1: 50·3600/2... (100·1800 + 200·1800).
	if e := tr.Energy(1800, 3600); math.Abs(e-(100*1800+200*1800)) > 1e-6 {
		t.Errorf("straddling energy %v", e)
	}
	// Beyond the trace holds the last value.
	if e := tr.Energy(3*3600, 100); math.Abs(e-300*100) > 1e-6 {
		t.Errorf("tail energy %v", e)
	}
	// Zero/negative durations.
	if tr.Energy(0, 0) != 0 || tr.Energy(0, -5) != 0 {
		t.Error("non-positive duration must give 0")
	}
	// MeanPower consistency.
	if mp := tr.MeanPower(0, 2*3600); math.Abs(mp-150) > 1e-9 {
		t.Errorf("mean power %v, want 150", mp)
	}
}

// TestTracePowerAt reads the green power at an offset as the mean over
// one second there: steps are looked up by offset ÷ StepSeconds, the
// last step is held past the end, and there is no supply before the
// trace starts.
func TestTracePowerAt(t *testing.T) {
	tr := &Trace{StepSeconds: 3600, Power: []float64{10, 20}}
	at := func(offset float64) float64 { return tr.MeanPower(offset, 1) }
	if at(-5) != 0 || at(0) != 10 || at(3599) != 10 || at(3600) != 20 || at(1e9) != 20 {
		t.Errorf("power at -5, 0, 3599, 3600, 1e9 s = %v %v %v %v %v, want 0 10 10 20 20",
			at(-5), at(0), at(3599), at(3600), at(1e9))
	}
	empty := &Trace{StepSeconds: 3600}
	if empty.MeanPower(0, 1) != 0 {
		t.Error("empty trace must supply 0")
	}
}

// peak returns the maximum step power in the trace.
func peak(t *Trace) float64 {
	p := 0.0
	for _, v := range t.Power {
		if v > p {
			p = v
		}
	}
	return p
}

func TestMachineTypes(t *testing.T) {
	wantWatts := []float64{440, 345, 250, 155}
	for typ := 1; typ <= 4; typ++ {
		pm, err := MachineType(typ)
		if err != nil {
			t.Fatal(err)
		}
		if pm.Cores != 5-typ {
			t.Errorf("type %d has %d cores, want %d", typ, pm.Cores, 5-typ)
		}
		if w := pm.Watts(); w != wantWatts[typ-1] {
			t.Errorf("type %d watts %v, want %v (paper §V-A)", typ, w, wantWatts[typ-1])
		}
	}
	if _, err := MachineType(0); err == nil {
		t.Error("type 0 accepted")
	}
	if _, err := MachineType(5); err == nil {
		t.Error("type 5 accepted")
	}
}

func TestDirtyEnergy(t *testing.T) {
	tr := &Trace{StepSeconds: 3600, Power: []float64{100, 500}}
	// Hour 0: draw 440, green 100 → 340 dirty W. Hour 1: green 500 > 440 → 0.
	d := DirtyEnergy(440, tr, 0, 2*3600)
	if math.Abs(d-340*3600) > 1e-6 {
		t.Errorf("dirty energy %v, want %v", d, 340.0*3600)
	}
	// Without a trace everything is dirty.
	if d := DirtyEnergy(200, nil, 0, 10); d != 2000 {
		t.Errorf("no-trace dirty %v", d)
	}
	// Never negative.
	if d := DirtyEnergy(50, tr, 3600, 3600); d != 0 {
		t.Errorf("surplus hour dirty %v, want 0", d)
	}
	if DirtyEnergy(100, tr, 0, -1) != 0 {
		t.Error("negative duration must give 0")
	}
}

func TestDirtyRate(t *testing.T) {
	tr := &Trace{StepSeconds: 3600, Power: []float64{100, 100}}
	if k := DirtyRate(440, tr, 0, 7200); math.Abs(k-340) > 1e-9 {
		t.Errorf("k = %v, want 340", k)
	}
	if k := DirtyRate(50, tr, 0, 7200); k != 0 {
		t.Errorf("surplus k = %v, want clamp to 0", k)
	}
	if k := DirtyRate(75, nil, 0, 100); k != 75 {
		t.Errorf("no-trace k = %v, want full draw", k)
	}
}

func TestLocationHeterogeneity(t *testing.T) {
	// The four sites must actually differ in mean availability —
	// otherwise the energy dimension of the experiments is degenerate.
	locs := GoogleDatacenterLocations()
	if len(locs) != 4 {
		t.Fatalf("%d locations, want 4", len(locs))
	}
	means := make([]float64, len(locs))
	for i, loc := range locs {
		tr, err := GenerateTrace(loc, DefaultPanel(), 172, 7*24)
		if err != nil {
			t.Fatal(err)
		}
		means[i] = tr.MeanPower(0, 7*24*3600)
	}
	for i := 0; i < len(means); i++ {
		for j := i + 1; j < len(means); j++ {
			if math.Abs(means[i]-means[j]) < 1 {
				t.Errorf("locations %d and %d have near-identical mean power %v vs %v",
					i, j, means[i], means[j])
			}
		}
	}
}
