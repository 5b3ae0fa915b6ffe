package perfmodel

// Validation: the model's first consumer of *measured* data. The rest of
// this package replays the 1997 platforms in virtual time; Validate turns
// the relationship around and asks how a real run of this repository's
// engines on the present host compares, rank count by rank count, with
// what the model predicts for a chosen platform. The interesting output
// is the shape comparison — whether measured speedup rises, saturates or
// dips where the model says it should — not the absolute ratio, since the
// host is neither an Onyx, an Indy cluster nor an SP-2.

import (
	"fmt"
	"sort"
)

// Measured is one real engine run at a given rank count, as collected by
// photon-bench -perfmodel (or any caller with a stopwatch).
type Measured struct {
	// Ranks is the worker/rank count of the run.
	Ranks int
	// WallSeconds is the run's measured wall time.
	WallSeconds float64
	// Photons is the number of photons the run emitted.
	Photons int64
}

// Rate returns the run's measured throughput in photons/second.
func (m Measured) Rate() float64 {
	if m.WallSeconds <= 0 {
		return 0
	}
	return float64(m.Photons) / m.WallSeconds
}

// Prediction compares one rank count's measured speedup with the model's.
type Prediction struct {
	Ranks            int     `json:"ranks"`
	MeasuredRate     float64 `json:"measured_photons_per_sec"`
	MeasuredSpeedup  float64 `json:"measured_speedup"`
	PredictedSpeedup float64 `json:"predicted_speedup"`
	// Ratio is measured over predicted speedup: 1 means the host scales
	// exactly as the modelled platform, above 1 it scales better.
	Ratio float64 `json:"ratio"`
}

// ValidationReport is the measured-versus-predicted comparison for one
// platform model and scene workload.
type ValidationReport struct {
	Platform string `json:"platform"`
	Scene    string `json:"scene"`
	// BaselineRate is the measured 1-rank throughput every speedup is
	// relative to (the "best serial version" convention of chapter 5).
	BaselineRate float64      `json:"baseline_photons_per_sec"`
	Points       []Prediction `json:"points"`
}

// validationBudget is the virtual-seconds horizon the predicted speedups
// are evaluated at — the paper's two-minute visual-comparison budget,
// long enough for the adaptive batch controller to reach steady state.
const validationBudget = 120

// Validate compares measured engine runs against the platform model's
// predicted speedup curve. runs must include exactly one 1-rank baseline;
// duplicate rank counts are rejected rather than silently averaged.
func Validate(p Platform, s SceneModel, runs []Measured) (ValidationReport, error) {
	rep := ValidationReport{Platform: p.Name, Scene: s.Name}
	if len(runs) == 0 {
		return rep, fmt.Errorf("perfmodel: no measured runs to validate")
	}
	seen := make(map[int]bool, len(runs))
	var baseline *Measured
	for i := range runs {
		m := &runs[i]
		if m.Ranks <= 0 {
			return rep, fmt.Errorf("perfmodel: measured run with invalid rank count %d", m.Ranks)
		}
		if m.WallSeconds <= 0 || m.Photons <= 0 {
			return rep, fmt.Errorf("perfmodel: measured run at %d ranks has no timing (wall=%v, photons=%d)",
				m.Ranks, m.WallSeconds, m.Photons)
		}
		if seen[m.Ranks] {
			return rep, fmt.Errorf("perfmodel: duplicate measurement at %d ranks", m.Ranks)
		}
		seen[m.Ranks] = true
		if m.Ranks == 1 {
			baseline = m
		}
	}
	if baseline == nil {
		return rep, fmt.Errorf("perfmodel: validation needs a 1-rank baseline run")
	}
	rep.BaselineRate = baseline.Rate()

	sorted := append([]Measured(nil), runs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Ranks < sorted[j].Ranks })
	for _, m := range sorted {
		pt := Prediction{
			Ranks:            m.Ranks,
			MeasuredRate:     m.Rate(),
			MeasuredSpeedup:  m.Rate() / rep.BaselineRate,
			PredictedSpeedup: Speedup(p, s, m.Ranks, validationBudget),
		}
		if pt.PredictedSpeedup > 0 {
			pt.Ratio = pt.MeasuredSpeedup / pt.PredictedSpeedup
		}
		rep.Points = append(rep.Points, pt)
	}
	return rep, nil
}
