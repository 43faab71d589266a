package energy

import "fmt"

// PowerModel is a server's electrical draw model: a fixed base plus a
// per-active-core term, following the paper's derivation from HP SL
// server specs (1200 W chassis, 12 × 95 W Xeons ⇒ 60 W base).
type PowerModel struct {
	// BaseWatts is the idle chassis draw.
	BaseWatts float64
	// PerCoreWatts is the draw of one active core's processor share.
	PerCoreWatts float64
	// Cores is the number of active cores.
	Cores int
}

// Watts returns the total draw E_i of the server while running.
func (p PowerModel) Watts() float64 {
	return p.BaseWatts + p.PerCoreWatts*float64(p.Cores)
}

// Paper §V-A constants: Intel Xeon processor power and the HP SL base.
const (
	// XeonWatts is the per-processor power used in §V-A.
	XeonWatts = 95
	// BaseWatts is the non-processor chassis power (1200 − 12·95).
	BaseWatts = 60
)

// MachineType reproduces the paper's four machine classes: type 1 is
// the fastest (relative speed 4x, 4 cores, 440 W) down to type 4
// (speed 1x, 1 core, 155 W).
func MachineType(t int) (PowerModel, error) {
	if t < 1 || t > 4 {
		return PowerModel{}, fmt.Errorf("energy: machine type %d, want 1..4", t)
	}
	cores := 5 - t
	return PowerModel{BaseWatts: BaseWatts, PerCoreWatts: XeonWatts, Cores: cores}, nil
}

// DirtyEnergy returns the joules drawn from the grid by a server with
// draw watts running for dur seconds against the green trace starting
// at offset from. Green supply beyond the draw is surplus, never a
// credit, so the result is nonnegative (integrated per trace step).
func DirtyEnergy(watts float64, tr *Trace, from, dur float64) float64 {
	if dur <= 0 {
		return 0
	}
	if tr == nil || len(tr.Power) == 0 {
		return watts * dur
	}
	var dirty float64
	end := from + dur
	cur := from
	// Pre-trace time has no green supply: the whole draw is dirty. This
	// mirrors Trace.Energy's clamp so green + dirty always sums to the
	// total draw, whatever the offset.
	if cur < 0 {
		if end <= 0 {
			return watts * dur
		}
		dirty += watts * -cur
		cur = 0
	}
	for cur < end {
		i := int(cur / tr.StepSeconds)
		var green float64
		var stepEnd float64
		if i >= len(tr.Power) {
			green = tr.Power[len(tr.Power)-1]
			stepEnd = end
		} else {
			green = tr.Power[i]
			stepEnd = float64(i+1) * tr.StepSeconds
			if stepEnd > end {
				stepEnd = end
			}
		}
		net := watts - green
		if net > 0 {
			dirty += net * (stepEnd - cur)
		}
		cur = stepEnd
	}
	return dirty
}

// DirtyRate returns k_i, the node-specific mean dirty-power constant
// of §III-D's linearization: the server draw minus the mean green
// availability over the window, floored at zero (surplus green power
// cannot make dirty energy negative).
func DirtyRate(watts float64, tr *Trace, from, window float64) float64 {
	mean := 0.0
	if tr != nil {
		mean = tr.MeanPower(from, window)
	}
	k := watts - mean
	if k < 0 {
		return 0
	}
	return k
}
