// Package energy models per-node green-energy availability and dirty
// (grid) energy consumption, standing in for the NREL PVWATTS
// simulator the paper drives (§III-B, §V-A).
//
// The paper's pipeline needs, per node, a renewable power trace
// GE(t) = p(w(t))·B(t), where B(t) is production under ideal sunny
// conditions, w(t) is cloud cover and p is an attenuation factor.
// We produce exactly that shape from first principles:
//
//   - B(t): solar-geometry clear-sky irradiance (declination, hour
//     angle, zenith via the Haurwitz model) times the panel spec;
//   - w(t): a seeded seasonal + AR(1) stochastic cloud process per
//     location, mimicking a weather database;
//   - p(w) = 1 − 0.75·w^3.4, the Kasten–Czeplak attenuation.
//
// Everything is deterministic given the location seed, so experiments
// are reproducible anywhere, which is the property that matters for
// the framework (it only ever consumes the trace).
package energy

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Location describes a datacenter site hosting solar capacity.
type Location struct {
	// Name identifies the site in reports.
	Name string
	// LatitudeDeg is the geographic latitude in degrees (north positive).
	LatitudeDeg float64
	// MeanCloud is the baseline mean cloud-cover fraction in [0, 1].
	MeanCloud float64
	// CloudSeed drives the synthetic weather process.
	CloudSeed int64
}

// GoogleDatacenterLocations are the four sites used to induce
// green-energy heterogeneity, mirroring §V-A's four Google datacenter
// locations. Coordinates are the real sites; cloudiness baselines are
// climatological ballparks.
func GoogleDatacenterLocations() []Location {
	return []Location{
		{Name: "the-dalles-or", LatitudeDeg: 45.59, MeanCloud: 0.55, CloudSeed: 101},
		{Name: "council-bluffs-ia", LatitudeDeg: 41.26, MeanCloud: 0.45, CloudSeed: 202},
		{Name: "berkeley-county-sc", LatitudeDeg: 33.19, MeanCloud: 0.40, CloudSeed: 303},
		{Name: "mayes-county-ok", LatitudeDeg: 36.30, MeanCloud: 0.35, CloudSeed: 404},
	}
}

// Panel is a PV installation specification, the input PVWATTS takes.
type Panel struct {
	// AreaM2 is the collector area in square meters.
	AreaM2 float64
	// Efficiency is the cell efficiency in (0, 1].
	Efficiency float64
	// Derate folds in inverter and wiring losses, in (0, 1].
	Derate float64
}

// DefaultPanel sizes the installation so a sunny noon roughly covers
// one server's full draw (~450 W peak), matching the paper's regime
// where green supply is material but not unconditionally sufficient.
func DefaultPanel() Panel {
	return Panel{AreaM2: 3.0, Efficiency: 0.20, Derate: 0.85}
}

// Validate checks panel parameters.
func (p Panel) Validate() error {
	if p.AreaM2 <= 0 || p.Efficiency <= 0 || p.Efficiency > 1 || p.Derate <= 0 || p.Derate > 1 {
		return fmt.Errorf("energy: invalid panel %+v", p)
	}
	return nil
}

// SolarDeclinationDeg returns the solar declination in degrees for a
// day of year (1–365), via Cooper's formula.
func SolarDeclinationDeg(dayOfYear int) float64 {
	return 23.45 * math.Sin(2*math.Pi*float64(284+dayOfYear)/365)
}

// CosZenith returns the cosine of the solar zenith angle at the given
// latitude, day of year, and local solar hour (0–24). Negative values
// (sun below horizon) are clamped to 0.
func CosZenith(latDeg float64, dayOfYear int, hour float64) float64 {
	lat := latDeg * math.Pi / 180
	dec := SolarDeclinationDeg(dayOfYear) * math.Pi / 180
	hourAngle := (hour - 12) * 15 * math.Pi / 180
	c := math.Sin(lat)*math.Sin(dec) + math.Cos(lat)*math.Cos(dec)*math.Cos(hourAngle)
	if c < 0 {
		return 0
	}
	return c
}

// ClearSkyIrradiance returns the global horizontal irradiance in W/m²
// under cloudless conditions (Haurwitz model): 1098·cosθz·exp(−0.057/cosθz).
func ClearSkyIrradiance(latDeg float64, dayOfYear int, hour float64) float64 {
	cz := CosZenith(latDeg, dayOfYear, hour)
	if cz <= 0 {
		return 0
	}
	return 1098 * cz * math.Exp(-0.057/cz)
}

// CloudAttenuation is the Kasten–Czeplak factor p(w) = 1 − 0.75·w^3.4
// mapping cloud cover w ∈ [0,1] to the fraction of clear-sky
// irradiance that reaches the ground.
func CloudAttenuation(w float64) float64 {
	if w < 0 {
		w = 0
	}
	if w > 1 {
		w = 1
	}
	return 1 - 0.75*math.Pow(w, 3.4)
}

// CloudModel is the synthetic weather process for a location: an AR(1)
// walk around a seasonal mean. It replaces PVWATTS's weather database.
type CloudModel struct {
	loc Location
	rho float64
	sig float64
}

// NewCloudModel builds the weather process for a location.
func NewCloudModel(loc Location) *CloudModel {
	return &CloudModel{loc: loc, rho: 0.92, sig: 0.08}
}

// SeasonalMean returns the expected cloud cover on a day of year:
// baseline plus a winter-peaking annual cycle.
func (m *CloudModel) SeasonalMean(dayOfYear int) float64 {
	s := m.loc.MeanCloud + 0.15*math.Cos(2*math.Pi*float64(dayOfYear-15)/365)
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// HourlySeries generates cloud-cover values for consecutive hours
// starting at (dayOfYear, startHour). Deterministic per location seed.
func (m *CloudModel) HourlySeries(dayOfYear int, startHour, hours int) []float64 {
	rng := rand.New(rand.NewSource(m.loc.CloudSeed))
	// Burn the process in so the series start does not depend on the
	// initial condition.
	w := m.SeasonalMean(dayOfYear)
	for i := 0; i < 48; i++ {
		w = m.step(w, dayOfYear, rng)
	}
	out := make([]float64, hours)
	day, hr := dayOfYear, startHour
	for i := range out {
		w = m.step(w, day, rng)
		out[i] = w
		hr++
		if hr >= 24 {
			hr = 0
			day++
			if day > 365 {
				day = 1
			}
		}
	}
	return out
}

func (m *CloudModel) step(w float64, day int, rng *rand.Rand) float64 {
	mu := m.SeasonalMean(day)
	w = mu + m.rho*(w-mu) + m.sig*rng.NormFloat64()
	if w < 0 {
		return 0
	}
	if w > 1 {
		return 1
	}
	return w
}

// Trace is an hourly green-power trace for one site: Power[i] is the
// average PV output in watts during hour i of the trace. The paper
// notes the per-hour PVWATTS averages can be rescaled to per-second
// precision; Energy and MeanPower below interpolate inside hours.
type Trace struct {
	// StepSeconds is the trace resolution (3600 for hourly).
	StepSeconds float64
	// Power holds average watts per step.
	Power []float64
}

// ErrEmptyTrace is returned when generating or querying an empty trace.
var ErrEmptyTrace = errors.New("energy: empty trace")

// GenerateTrace produces an hours-long hourly trace for the location
// and panel, starting at local solar midnight of dayOfYear.
func GenerateTrace(loc Location, panel Panel, dayOfYear, hours int) (*Trace, error) {
	if err := panel.Validate(); err != nil {
		return nil, err
	}
	if hours <= 0 {
		return nil, ErrEmptyTrace
	}
	clouds := NewCloudModel(loc).HourlySeries(dayOfYear, 0, hours)
	tr := &Trace{StepSeconds: 3600, Power: make([]float64, hours)}
	day, hr := dayOfYear, 0
	for i := 0; i < hours; i++ {
		// Sample mid-hour irradiance as the hourly average.
		ghi := ClearSkyIrradiance(loc.LatitudeDeg, day, float64(hr)+0.5)
		ghi *= CloudAttenuation(clouds[i])
		tr.Power[i] = ghi * panel.AreaM2 * panel.Efficiency * panel.Derate
		hr++
		if hr >= 24 {
			hr = 0
			day++
			if day > 365 {
				day = 1
			}
		}
	}
	return tr, nil
}

// Energy integrates green energy (joules) over [from, from+dur)
// seconds, interpolating partial steps.
func (t *Trace) Energy(from, dur float64) float64 {
	if dur <= 0 || len(t.Power) == 0 {
		return 0
	}
	var total float64
	end := from + dur
	cur := from
	// Before the trace there is no green supply: skip straight to t=0
	// (int truncation toward zero would otherwise misfile a fractional
	// negative offset into step 0 and credit green for pre-trace time).
	if cur < 0 {
		if end <= 0 {
			return 0
		}
		cur = 0
	}
	for cur < end {
		i := int(cur / t.StepSeconds)
		if i >= len(t.Power) {
			// Beyond the trace: hold the last value (the framework
			// sizes traces to cover the job window, this is a guard).
			total += t.Power[len(t.Power)-1] * (end - cur)
			break
		}
		stepEnd := float64(i+1) * t.StepSeconds
		if stepEnd > end {
			stepEnd = end
		}
		total += t.Power[i] * (stepEnd - cur)
		cur = stepEnd
	}
	return total
}

// MeanPower returns the average green power (W) over [from, from+dur).
func (t *Trace) MeanPower(from, dur float64) float64 {
	if dur <= 0 {
		return 0
	}
	return t.Energy(from, dur) / dur
}
