package baseline

import (
	"repro/internal/core"
	"repro/internal/scenes"
)

// Density estimation (Shirley et al., parallelized by Zareski et al.) is
// the closest prior art to Photon and the comparison chapter 3 closes with:
// particle tracing records EVERY interaction in an O(n) "hit point" file,
// which a second pass distills into per-surface irradiance functions; the
// parallel version's second phase is limited by the surface with the most
// hit points. Photon's histogram distillation removes both problems.

// HitPoint is one recorded photon-surface interaction (the paper budgets
// ~100 bytes per hit in mass storage).
type HitPoint struct {
	Patch int32
	S, T  float32
	Power float32
}

// HitPointBytes is the assumed storage per hit record.
const HitPointBytes = 100

// DensityResult is the outcome of the particle-tracing phase.
type DensityResult struct {
	Hits      []HitPoint
	PerPatch  []int64 // hit counts per defining polygon
	FileBytes int64   // simulated hit-file size (O(n) in photons)
}

// TraceDensity runs the particle-tracing phase: the same transport physics
// and the same photons as a Photon run at this seed, but recording raw
// hits instead of histogramming them.
func TraceDensity(sc *scenes.Scene, photons int64, seed int64) (*DensityResult, error) {
	cfg := core.DefaultConfig(photons)
	cfg.Seed = seed
	sim, err := core.NewSimulator(sc, cfg)
	if err != nil {
		return nil, err
	}
	res := &DensityResult{PerPatch: make([]int64, len(sc.Geom.Patches))}
	var stats core.Stats
	sim.Trace(0, photons, &stats, func(t core.Tally) {
		res.Hits = append(res.Hits, HitPoint{
			Patch: t.Patch,
			S:     float32(t.Point.S), T: float32(t.Point.T),
			Power: float32(t.Power.R+t.Power.G+t.Power.B) / 3,
		})
		res.PerPatch[t.Patch]++
	})
	res.FileBytes = int64(len(res.Hits)) * HitPointBytes
	return res, nil
}

// LargestSurfaceFraction returns the fraction of all hits landing on the
// single busiest surface — the Amdahl term that caps the parallel meshing
// phase ("limited by the time needed to process the surface with the
// largest number of hit points").
func (r *DensityResult) LargestSurfaceFraction() float64 {
	var total, max int64
	for _, c := range r.PerPatch {
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) / float64(total)
}

// MeshingSpeedup returns the modelled speedup of the density-estimation +
// meshing phase on p processors given the largest-surface hit fraction f:
// work on one surface is indivisible, so by Amdahl
// S(p) = 1 / (f + (1-f)/p). With the fractions the paper reports this
// yields ≈8.5 at 16 processors for a typical geometry and ≈4.5 in the bad
// case, versus ≈15 for the embarrassingly-parallel tracing phase.
func MeshingSpeedup(f float64, p int) float64 {
	if p < 1 {
		p = 1
	}
	return 1 / (f + (1-f)/float64(p))
}

// TracingSpeedup models the particle-tracing phase: near-linear with a
// small per-processor coordination loss (the paper observed ~15 on 16).
func TracingSpeedup(p int) float64 {
	if p < 1 {
		p = 1
	}
	return float64(p) / (1 + 3e-4*float64(p-1)*float64(p-1))
}

// PhotonStorageBytes returns the storage Photon would use for the same
// simulation: the bin forest, not the hit log — the 1-2 orders of magnitude
// the paper claims.
func PhotonStorageBytes(sc *scenes.Scene, photons int64, seed int64) (int64, error) {
	cfg := core.DefaultConfig(photons)
	cfg.Seed = seed
	res, err := core.Run(sc, cfg)
	if err != nil {
		return 0, err
	}
	return res.Forest.MemoryBytes(), nil
}
