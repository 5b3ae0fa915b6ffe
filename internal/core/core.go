//photon:deterministic — photon trajectories and tallies are pure functions of (scene, seed, photon index);
// photon-lint (nondeterm, floatreduce) polices this file — see DESIGN.md.

// Package core implements the sequential Photon engine — the paper's
// primary contribution (Figure 4.1):
//
//	for iphot = 1 to nphot do
//	    GeneratePhoton(&photon, &bin); UpdateBinCount(&bin)
//	    while not absorbed:
//	        DetermineIntersection(photon, &poly)
//	        DetermineBin(photon, &bin, poly)
//	        if Reflect(&photon, bin): UpdateBinCount(&bin); Split if needed
//	        else absorbed
//
// Emission and every surviving reflection are tallied into the adaptive 4-D
// bin forest; the forest *is* the answer — a view-independent discrete
// radiance function for every surface, queried later by the viewer.
package core

import (
	"fmt"

	"repro/internal/bintree"
	"repro/internal/emitter"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/sampler"
	"repro/internal/scenes"
	"repro/internal/vecmath"
)

// Config parameterizes a simulation run.
type Config struct {
	// Photons is the number of photons to emit.
	Photons int64
	// Seed selects the random stream.
	Seed int64
	// MaxBounces caps a photon's path length as a safety net; Russian
	// roulette terminates paths naturally long before this.
	MaxBounces int
	// Bin configures the histogram forest; zero value means
	// bintree.DefaultConfig.
	Bin bintree.Config
	// Sections is the per-axis (s,t) section count per defining polygon:
	// the forest holds Sections² trees per polygon. 0 or 1 means one tree
	// per polygon. Sectioning is the distributed engine's ownership
	// granularity; the serial and shared engines accept it so that a run
	// with any engine at the same Sections produces the identical forest.
	Sections int
}

// DefaultConfig returns sensible simulation parameters.
func DefaultConfig(photons int64) Config {
	return Config{Photons: photons, Seed: 1, MaxBounces: 64, Bin: bintree.DefaultConfig()}
}

func (c *Config) normalize() {
	if c.MaxBounces <= 0 {
		c.MaxBounces = 64
	}
	if c.Bin == (bintree.Config{}) {
		c.Bin = bintree.DefaultConfig()
	}
	if c.Sections < 1 {
		c.Sections = 1
	}
}

// photonState places photon idx's private substream on the drand48 cycle
// via a splitmix-style hash of (seed, idx). Hashing — rather than a fixed
// jump-ahead block per photon — means substream starts cannot align
// systematically with each other for any photon count; residual overlaps
// are birthday-rare and a few dozen draws long.
func photonState(seed, idx int64) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(idx)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// PhotonStream returns photon idx's private random substream. Every engine
// draws photon idx's entire life — emission and flight — from this one
// stream, which makes the trajectory a pure function of (seed, idx): the
// same photon is the same photon no matter which worker, rank or chunk
// traces it. This is the foundation of the cross-engine conformance
// guarantee.
func PhotonStream(seed, idx int64) *rng.Source {
	return rng.NewFromState(photonState(seed, idx))
}

// Stats accumulates simulation counters.
type Stats struct {
	PhotonsEmitted  int64
	Reflections     int64 // surviving bounces (tally events beyond emission)
	Absorptions     int64
	Escapes         int64 // photons that left the scene (open geometry)
	BinSplits       int64
	TotalPathLength int64 // total surface interactions
}

// Result is a completed simulation.
type Result struct {
	Scene  *scenes.Scene
	Forest *bintree.Forest
	Stats  Stats
	// EmittedPhotons is the actual emission count, needed to normalize
	// radiance queries.
	EmittedPhotons int64
}

// Simulator traces photons for one scene. After construction it is only
// read — Trace, EmitPhoton, Interact and TracePhotonFunc keep every piece
// of mutable state on the stack or in the caller's stream, stats and
// deliver — so one Simulator is safe to trace from any number of
// goroutines at once.
type Simulator struct {
	scene   *scenes.Scene
	emitter *emitter.Emitter
	cfg     Config
}

// NewSimulator prepares a simulator.
func NewSimulator(scene *scenes.Scene, cfg Config) (*Simulator, error) {
	cfg.normalize()
	if cfg.Photons <= 0 {
		return nil, fmt.Errorf("core: Photons must be positive, got %d", cfg.Photons)
	}
	em, err := emitter.New(scene.Geom, cfg.Photons)
	if err != nil {
		return nil, err
	}
	return &Simulator{scene: scene, emitter: em, cfg: cfg}, nil
}

// Scene returns the simulator's scene.
func (s *Simulator) Scene() *scenes.Scene { return s.scene }

// Config returns the simulator's configuration.
func (s *Simulator) Config() Config { return s.cfg }

// Run executes the full simulation serially and returns the answer forest.
func Run(scene *scenes.Scene, cfg Config) (*Result, error) {
	return RunProgress(scene, cfg, nil)
}

// RunWavefront is Run; the width is ignored. It is kept only for the
// benchmark's layer table, which still times it under that name.
func RunWavefront(scene *scenes.Scene, cfg Config, _ int) (*Result, error) {
	return Run(scene, cfg)
}

// RunProgress is Run with a streaming completion callback: progress (which
// may be nil) is invoked from the simulating goroutine with the photons
// finished so far and the total — once per 4096 photons, and once at the
// end.
func RunProgress(scene *scenes.Scene, cfg Config, progress func(done, total int64)) (*Result, error) {
	const progressEvery = 4096
	sim, err := NewSimulator(scene, cfg)
	if err != nil {
		return nil, err
	}
	forest := bintree.NewForestSectioned(len(scene.Geom.Patches), sim.cfg.Sections, sim.cfg.Bin)
	var stats Stats
	deliver := func(t Tally) {
		if forest.Add(int(t.Patch), t.Point, t.Power) {
			stats.BinSplits++
		}
	}
	total := sim.cfg.Photons
	for lo := int64(0); lo < total; lo += progressEvery {
		hi := min(lo+progressEvery, total)
		sim.Trace(lo, hi, &stats, deliver)
		if progress != nil {
			progress(hi, total)
		}
	}
	return &Result{
		Scene: scene, Forest: forest, Stats: stats,
		EmittedPhotons: stats.PhotonsEmitted,
	}, nil
}

// Tally is one bin update: the reflected (or emitted) photon's destination
// bin and power. The distributed engine routes Tally values between ranks;
// the serial engine applies them as they are delivered.
type Tally struct {
	Patch int32
	Point bintree.Point
	Power bintree.RGB
}

// Flight is a photon's in-flight state between surface interactions. The
// geometry-distributed engine serializes Flights between space owners;
// the other engines keep them on the stack.
type Flight struct {
	Ray          vecmath.Ray
	Power        vecmath.Vec3
	Polarization float64
	// Bounces counts the surface interactions so far; the engines cap it
	// at Config.MaxBounces.
	Bounces int
}

// EmitPhoton generates one photon (GeneratePhoton + UpdateBinCount for the
// emission itself) and returns the flight ready for tracing.
func (s *Simulator) EmitPhoton(stream *rng.Source, stats *Stats, deliver func(Tally)) Flight {
	ph, patchIdx, es, et, er2, eth := s.emitter.Generate(stream)
	stats.PhotonsEmitted++
	deliver(Tally{
		Patch: int32(patchIdx),
		Point: bintree.Point{S: es, T: et, R2: er2, Theta: eth},
		Power: bintree.RGB{R: ph.Power.X, G: ph.Power.Y, B: ph.Power.Z},
	})
	return Flight{Ray: ph.Ray, Power: ph.Power, Polarization: ph.Polarization}
}

// Interact performs one surface interaction at hit h — Reflect plus
// DetermineBin/UpdateBinCount — and advances the flight past it. It
// reports whether the flight survives; on absorption stats are final.
// Every engine funnels through this one function so the physics cannot
// drift between serial, shared, replicated and geometry-distributed runs.
func (s *Simulator) Interact(stream *rng.Source, f *Flight, h *geom.Hit, stats *Stats, deliver func(Tally)) bool {
	stats.TotalPathLength++

	// Reflect: material decides absorption and outgoing direction.
	mat := s.scene.Material(h.Patch.ID)
	var basis vecmath.ONB
	if h.FrontFace {
		basis = h.Patch.Basis()
	} else {
		// Back face: flip the frame so W matches the shading normal.
		fb := h.Patch.Basis()
		basis = vecmath.ONB{U: fb.U, V: fb.V.Neg(), W: fb.W.Neg()}
	}
	it := mat.Scatter(stream, f.Ray.Dir, h.Normal, basis, f.Polarization)
	if it.Absorbed {
		stats.Absorptions++
		return false
	}

	// DetermineBin: position (s,t) plus the *outgoing* direction in the
	// patch's local cylindrical coordinates (Figure 4.5), then
	// UpdateBinCount via deliver.
	lx, ly, lz := basis.ToLocal(it.Dir)
	r2, theta := sampler.CylindricalCoords(vecmath.V(lx, ly, lz))
	newPower := f.Power.Mul(it.Weight)
	deliver(Tally{
		Patch: int32(h.Patch.ID),
		Point: bintree.Point{S: h.S, T: h.T2, R2: r2, Theta: theta},
		Power: bintree.RGB{R: newPower.X, G: newPower.Y, B: newPower.Z},
	})
	stats.Reflections++

	// Continue the flight.
	f.Ray = vecmath.Ray{Origin: h.Point.Add(it.Dir.Scale(geom.Eps)), Dir: it.Dir}
	f.Power = newPower
	f.Polarization = it.Polarization
	f.Bounces++
	return true
}

// Trace emits photons [lo, hi) and traces each one to absorption before it
// emits the next — the Figure 4.1 loop — updating stats and handing every
// tally to deliver in photon-index order. Photon i draws from a stack-held
// stream seated at PhotonStream(seed, i)'s state, so a chunk, a round or a
// whole run traces the same photons whichever goroutine or rank calls it.
// Every engine but geo traces through this one loop; tracing allocates
// nothing.
func (s *Simulator) Trace(lo, hi int64, stats *Stats, deliver func(Tally)) {
	var stream rng.Source
	for i := lo; i < hi; i++ {
		stream.Reset(photonState(s.cfg.Seed, i))
		s.TracePhotonFunc(&stream, stats, deliver)
	}
}

// TracePhotonFunc emits one photon and traces it to absorption, handing
// every tally to deliver and updating stats: one iteration of the Figure
// 4.1 loop, on the caller's stream.
func (s *Simulator) TracePhotonFunc(stream *rng.Source, stats *Stats, deliver func(Tally)) {
	f := s.EmitPhoton(stream, stats, deliver)
	var h geom.Hit
	for f.Bounces < s.cfg.MaxBounces {
		// DetermineIntersection: the flattened octree's iterative
		// sign-ordered front-to-back traversal — the paper's claim that
		// ordered testing makes this step cheap is what the geom layer's
		// layout is built around. The hit record is reused across bounces;
		// tracing a photon allocates nothing.
		if !s.scene.Geom.Intersect(f.Ray, &h) {
			stats.Escapes++
			return
		}
		if !s.Interact(stream, &f, &h, stats, deliver) {
			return
		}
	}
	// Path length cap reached: count as absorbed.
	stats.Absorptions++
}

// Add merges o into st (used when combining per-worker stats).
func (st *Stats) Add(o Stats) {
	st.PhotonsEmitted += o.PhotonsEmitted
	st.Reflections += o.Reflections
	st.Absorptions += o.Absorptions
	st.Escapes += o.Escapes
	st.BinSplits += o.BinSplits
	st.TotalPathLength += o.TotalPathLength
}

// MeanPathLength returns the mean surface interactions per photon.
func (st *Stats) MeanPathLength() float64 {
	if st.PhotonsEmitted == 0 {
		return 0
	}
	return float64(st.TotalPathLength) / float64(st.PhotonsEmitted)
}
