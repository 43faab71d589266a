// Online drift detection over a frozen stratification.
//
// The DriftTracker watches a frozen stratification for the online
// replanning loop: ingested records are assigned to the nearest
// *frozen* center with the same tie-breaking scan as the stratifier
// (nearestFlat, shared with kmodes.go), folded into per-(stratum,
// attribute) value frequency counters (counters.go), and the counters
// are exposed as a per-stratum drift statistic. The counters are keyed
// by value, not by the batch stratifier's per-call codes: a stream can
// bring values no code was given at freeze time. Refreezing a stratum
// from its counters uses the stratifier's top-L rule (count desc,
// value asc).
//
// The statistic is center coverage decay. For stratum s, coverage is
// the fraction of counter mass lying on the frozen center's candidate
// values:
//
//	C(s) = Σ_a Σ_{v ∈ center_s[a]} count(s, a, v) / (members(s) · width)
//
// At freeze time coverage is C₀(s) — the center explains its members
// that well, by construction of top-L selection the best any center
// could. Ingested records that resemble the stratum keep coverage near
// C₀; records the frozen center does not explain dilute it. Drift is
// the decay, clamped at zero:
//
//	Drift(s) = max(0, C₀(s) − C(s))
//
// A stratum is dirty when Drift(s) ≥ Threshold, so Threshold = 0 marks
// every stratum permanently dirty (forcing full replans) and
// Threshold > 1 never fires.
package strata

import (
	"errors"
	"fmt"

	"pareto/internal/sketch"
)

// DriftConfig configures a DriftTracker.
type DriftConfig struct {
	// Threshold is the dirtiness threshold on the Drift statistic: a
	// stratum is dirty when Drift(s) ≥ Threshold (the comparison is
	// inclusive). 0 marks every stratum always dirty.
	Threshold float64
}

// DriftTracker watches a frozen stratification under a live record
// stream. It is not safe for concurrent use; the replanning loop
// serializes Ingest and Cycle.
type DriftTracker struct {
	k, width, l int
	threshold   float64

	// centers are the frozen composite centers drift is measured
	// against; flat is their flattened [k×width×l] scan matrix.
	centers []Center
	flat    []uint64

	counters *freqCounters
	// base[s] is the member count at the last freeze of s; added[s]
	// counts records ingested into s since. int64: a stream can outlive
	// any one stratification by orders of magnitude.
	base  []int
	added []int64
	// cov0[s] is the coverage C₀(s) at the last freeze of s.
	cov0 []float64
}

// NewDriftTracker freezes the given stratification and starts tracking
// drift against it. The stratification's sketches and centers are
// referenced, not copied, and must not be mutated while tracked.
func NewDriftTracker(st *Stratification, cfg DriftConfig) (*DriftTracker, error) {
	if st == nil || st.Result == nil {
		return nil, errors.New("strata: drift tracker needs a stratification")
	}
	k := st.K()
	if k == 0 || len(st.Sketches) == 0 {
		return nil, errors.New("strata: drift tracker needs a non-empty stratification")
	}
	width := len(st.Sketches[0])
	d := &DriftTracker{
		k:         k,
		width:     width,
		threshold: cfg.Threshold,
		centers:   make([]Center, k),
		counters:  newFreqCounters(k, width),
		base:      make([]int, k),
		added:     make([]int64, k),
		cov0:      make([]float64, k),
	}
	copy(d.centers, st.Centers)
	d.l = maxCenterRow(d.centers)
	d.flat = make([]uint64, k*width*d.l)
	flattenCenters(d.flat, d.centers, width, d.l)
	for i, s := range st.Sketches {
		d.counters.add(s, st.Assign[i])
	}
	for s := 0; s < k; s++ {
		d.base[s] = len(st.Members[s])
		d.cov0[s] = d.coverage(s)
	}
	return d, nil
}

// maxCenterRow returns the longest candidate row across all centers
// (≥ 1; every live center row is non-empty by construction).
func maxCenterRow(centers []Center) int {
	l := 1
	for _, c := range centers {
		for _, row := range c.Values {
			if len(row) > l {
				l = len(row)
			}
		}
	}
	return l
}

// Ingest assigns one record sketch to its nearest frozen stratum
// (same scan and lowest-index tie-break as the stratifier), folds it
// into the frequency counters, and returns the stratum together with
// the record's attribute-mismatch distance to the frozen center.
func (d *DriftTracker) Ingest(s sketch.Sketch) (stratum, mismatch int, err error) {
	if len(s) != d.width {
		return 0, 0, fmt.Errorf("strata: ingest sketch width %d, tracker width %d", len(s), d.width)
	}
	stratum, mismatch = nearestFlat(d.flat, d.k, d.width, d.l, s)
	d.counters.add(s, stratum)
	d.added[stratum]++
	return stratum, mismatch, nil
}

// coverage returns C(s): the fraction of stratum-s counter mass lying
// on the frozen center's candidate values. Candidate values within one
// attribute row are distinct by top-L construction, so the sum counts
// each member coordinate at most once.
func (d *DriftTracker) coverage(s int) float64 {
	total := float64(d.base[s]) + float64(d.added[s])
	if total == 0 {
		return 0
	}
	var covered int64
	for a, row := range d.centers[s].Values {
		for _, v := range row {
			covered += int64(d.counters.count(s, a, v))
		}
	}
	return float64(covered) / (total * float64(d.width))
}

// Drift returns the coverage decay of stratum s since its last freeze,
// in [0, 1]. Empty strata report zero drift.
func (d *DriftTracker) Drift(s int) float64 {
	if d.base[s] == 0 && d.added[s] == 0 {
		return 0
	}
	if drift := d.cov0[s] - d.coverage(s); drift > 0 {
		return drift
	}
	return 0
}

// Dirty reports whether stratum s has drifted to or past the
// threshold.
func (d *DriftTracker) Dirty(s int) bool { return d.Drift(s) >= d.threshold }

// DirtyStrata returns the dirty stratum indices, ascending.
func (d *DriftTracker) DirtyStrata() []int {
	var dirty []int
	for s := 0; s < d.k; s++ {
		if d.Dirty(s) {
			dirty = append(dirty, s)
		}
	}
	return dirty
}

// K returns the number of tracked strata.
func (d *DriftTracker) K() int { return d.k }

// Reset refreezes the given strata from the current stratification
// after a partial re-stratify: their counters are rebuilt from the new
// memberships, centers refrozen, and added/coverage baselines reset.
// Strata not listed keep their counters — including ingested records —
// untouched. The stratification must have the tracker's K and sketch
// width (the replanning loop re-clusters dirty strata in place, so
// both are invariant).
func (d *DriftTracker) Reset(st *Stratification, strata []int) error {
	if st.K() != d.k {
		return fmt.Errorf("strata: reset with K = %d, tracker has %d", st.K(), d.k)
	}
	if len(st.Sketches) > 0 && len(st.Sketches[0]) != d.width {
		return fmt.Errorf("strata: reset sketch width %d, tracker width %d", len(st.Sketches[0]), d.width)
	}
	d.growFlat(maxCenterRow(st.Centers))
	for _, s := range strata {
		if s < 0 || s >= d.k {
			return fmt.Errorf("strata: reset stratum %d out of range [0, %d)", s, d.k)
		}
		d.counters.clearStratum(s)
		for _, i := range st.Members[s] {
			d.counters.add(st.Sketches[i], s)
		}
		d.freeze(s, st.Centers[s], len(st.Members[s]))
	}
	return nil
}

// growFlat widens the frozen scan matrix when a new center row exceeds
// its L, re-flattening every center at the new stride.
func (d *DriftTracker) growFlat(l int) {
	if l <= d.l {
		return
	}
	d.l = l
	d.flat = make([]uint64, d.k*d.width*d.l)
	flattenCenters(d.flat, d.centers, d.width, d.l)
}

// freeze installs center as stratum s's frozen center over counters
// that already hold exactly its members, and restarts its baselines.
func (d *DriftTracker) freeze(s int, center Center, members int) {
	d.centers[s] = center
	stride := d.width * d.l
	flattenCenters(d.flat[s*stride:(s+1)*stride], d.centers[s:s+1], d.width, d.l)
	d.base[s] = members
	d.added[s] = 0
	d.cov0[s] = d.coverage(s)
}

// RefreezeMode refreezes stratum s against the mode of its own members:
// the new center holds, per attribute, the top-l values of the counters
// the tracker already keeps for s, which count exactly the members s
// had at its last freeze plus everything ingested into it since. That
// is the center compositeKModes converges to when it clusters those
// members into one stratum (Config.L = l, MaxIter ≠ 1), so the caller
// gets what Cluster followed by Reset would produce — the returned
// center, the same counters, baselines restarted — in O(width ×
// distinct values) instead of three passes over the members. The
// stratum must be non-empty.
func (d *DriftTracker) RefreezeMode(s, l int) (Center, error) {
	if s < 0 || s >= d.k {
		return Center{}, fmt.Errorf("strata: refreeze stratum %d out of range [0, %d)", s, d.k)
	}
	if l < 1 {
		return Center{}, fmt.Errorf("strata: refreeze with L = %d, need ≥ 1", l)
	}
	members := d.base[s] + int(d.added[s])
	if members == 0 {
		return Center{}, fmt.Errorf("strata: refreeze of empty stratum %d", s)
	}
	var sel []valCount
	center := d.counters.modeCenter(s, l, &sel)
	d.growFlat(maxCenterRow([]Center{center}))
	d.freeze(s, center, members)
	return center, nil
}
