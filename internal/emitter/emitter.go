//photon:deterministic — emission positions and directions replay exactly from (seed, photon index);
// photon-lint (nondeterm, floatreduce) polices this file — see DESIGN.md.

// Package emitter implements photon generation (chapter 4): luminaire
// selection proportional to emitted power, uniform position sampling on the
// emitting patch, and direction sampling with the fast rejection kernel —
// including the scaled-circle collimation that turns a panel into a sun.
package emitter

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/sampler"
	"repro/internal/vecmath"
)

// Photon is a light particle in flight.
type Photon struct {
	Ray vecmath.Ray
	// Power is the RGB power the photon carries. Every photon starts with
	// the scene power divided by the emission count, scaled by its
	// luminaire's colour.
	Power vecmath.Vec3
	// Polarization is the degree of linear polarization (0 = unpolarized).
	Polarization float64
	// Bounces counts reflections so far.
	Bounces int
}

// Emitter generates photons for a scene. Generate only reads it — all
// randomness comes from the caller's stream — so one Emitter is safe to
// share across goroutines after New returns.
type Emitter struct {
	scene *geom.Scene
	// cumulative power table for luminaire selection
	cum   []float64
	total float64
	// perPhotonPower is the scalar power quantum; colour comes from the
	// luminaire.
	perPhotonBudget float64
}

// New builds an emitter. expectedPhotons calibrates the per-photon power so
// that emitting exactly that many photons deposits the scene's total power;
// statistics remain correct for any actual count because estimates divide
// by the true emission count.
func New(scene *geom.Scene, expectedPhotons int64) (*Emitter, error) {
	if expectedPhotons <= 0 {
		return nil, fmt.Errorf("emitter: expectedPhotons must be positive, got %d", expectedPhotons)
	}
	e := &Emitter{scene: scene}
	e.cum = make([]float64, len(scene.Luminaires))
	running := 0.0
	for i, idx := range scene.Luminaires {
		p := &scene.Patches[idx]
		running += p.Area() * p.Emission.Luminance()
		e.cum[i] = running
	}
	if running <= 0 {
		return nil, fmt.Errorf("emitter: scene has no emissive power")
	}
	e.total = running
	e.perPhotonBudget = running / float64(expectedPhotons)
	return e, nil
}

// TotalPower returns the scene's total luminance-weighted emission power.
func (e *Emitter) TotalPower() float64 { return e.total }

// PerPhotonBudget returns the scalar power quantum each photon carries.
func (e *Emitter) PerPhotonBudget() float64 { return e.perPhotonBudget }

// Generate emits one photon: luminaire chosen with probability proportional
// to its power, position uniform on the patch, direction cosine-weighted
// within the luminaire's collimation cone about its normal. It returns the
// photon together with the emitting patch index and the emission bin
// coordinates (s, t, r², θ) — the paper's GeneratePhoton fills a bin
// reference for the emission tally.
func (e *Emitter) Generate(r *rng.Source) (ph Photon, patchIdx int, s, t, r2, theta float64) {
	// Select the luminaire by binary search on the cumulative power table.
	x := r.Float64() * e.total
	lo, hi := 0, len(e.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if e.cum[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	patchIdx = e.scene.Luminaires[lo]
	p := &e.scene.Patches[patchIdx]

	s = r.Float64()
	t = r.Float64()
	origin := p.Point(s, t)

	var local vecmath.Vec3
	if p.Collimation >= 1 {
		local = sampler.GustafsonDirection(r)
	} else {
		local = sampler.LimitedDirection(r, p.Collimation)
	}
	r2, theta = sampler.CylindricalCoords(local)
	dir := p.Basis().ToWorld(local.X, local.Y, local.Z)

	// Normalize the luminaire colour so its luminance-weighted power
	// matches the per-photon budget exactly.
	colour := p.Emission.Scale(1 / p.Emission.Luminance())

	ph = Photon{
		Ray:   vecmath.Ray{Origin: origin.Add(dir.Scale(geom.Eps)), Dir: dir},
		Power: colour.Scale(e.perPhotonBudget),
	}
	return ph, patchIdx, s, t, r2, theta
}
