// Package photon is the public API of the Photon parallel hierarchical
// global illumination system — a Go reproduction of Snell & Gustafson,
// "Parallel Hierarchical Global Illumination" (HPDC 1997; Iowa State Ph.D.
// dissertation, 1997).
//
// Photon solves the Rendering Equation by Monte Carlo simulation of light
// transport: photons are emitted from luminaires, traced through a
// polygonal scene, and every reflection is tallied into adaptive
// four-dimensional histogram bins (surface position s,t × reflection
// direction r²,θ). The resulting bin forest is a view-independent radiance
// database: render any viewpoint afterwards with a single-bounce ray trace,
// no recomputation.
//
// Four engines share the same physics behind one internal Engine interface:
//
//   - EngineSerial: the reference single-threaded tracer.
//   - EngineShared: work-stealing goroutine workers tallying into private
//     buffers, merged in order into the shared forest (a contention-free
//     evolution of the paper's locked shared-memory algorithm).
//   - EngineDistributed: rank-per-goroutine message passing with a
//     partitioned forest, Best-Fit load balancing and batched all-to-all
//     tally exchange (the paper's MPI algorithm).
//   - EngineGeo: geometry-distributed space ownership with photon-flight
//     forwarding (the dissertation's chapter-6 design).
//
// Serial, shared and distributed are conformant: with the same Config they
// produce bit-identical statistics and bit-identical bin forests at any
// worker or rank count, because every photon draws from a private
// per-photon random substream and every engine applies each bin tree's
// tallies in photon-index order.
//
// Quick start:
//
//	scene, _ := photon.SceneByName("cornell-box")
//	sol, _ := photon.Simulate(scene, photon.Config{Photons: 1e6})
//	img, _ := photon.Render(scene, sol, photon.Camera{...}, photon.RenderOptions{})
package photon

import (
	"fmt"
	"image"
	"io"
	"os"

	"repro/internal/answer"
	"repro/internal/bintree"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/scenegen"
	"repro/internal/scenes"
	"repro/internal/vecmath"
	"repro/internal/view"
)

// Vec3 is a 3-component vector (points, directions, RGB).
type Vec3 = vecmath.Vec3

// V constructs a Vec3.
func V(x, y, z float64) Vec3 { return vecmath.V(x, y, z) }

// Scene is a simulation-ready environment: geometry plus materials.
type Scene = scenes.Scene

// Camera is the pinhole camera used for rendering answers.
type Camera = view.Camera

// RenderOptions tunes tone mapping (Exposure, Gamma) and the tile
// renderer (Workers goroutines, Samples² jittered rays per pixel seeded by
// Seed). Rendering is bit-identical at any Workers count; see view.Render.
type RenderOptions = view.Options

// Engine selects a parallelization strategy. Every engine implements the
// same internal engine.Engine interface; serial, shared and distributed
// are conformant — identical statistics and bit-identical forests for the
// same Config — while geo trades forest-layout identity for scalability.
type Engine int

// Available engines.
const (
	EngineSerial Engine = iota
	EngineShared
	EngineDistributed
	// EngineGeo is the geometry-distributed chapter-6 engine: space is
	// partitioned into octree root regions and photon flights migrate
	// between region owners instead of tallies between forest owners.
	EngineGeo
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineSerial:
		return "serial"
	case EngineShared:
		return "shared"
	case EngineDistributed:
		return "distributed"
	case EngineGeo:
		return "geo"
	}
	return "unknown"
}

// impl resolves the public selector to the internal engine implementation.
func (e Engine) impl() (engine.Engine, error) {
	switch e {
	case EngineSerial:
		return engine.Serial, nil
	case EngineShared:
		return engine.Shared, nil
	case EngineDistributed:
		return engine.Distributed, nil
	case EngineGeo:
		return engine.Geo, nil
	}
	return nil, fmt.Errorf("photon: unknown engine %v", e)
}

// Balance selects the distributed engine's forest-ownership strategy
// (section 5, "Load Balancing").
type Balance = dist.Balance

// Available strategies. BalanceBinPack (greedy Best-Fit seeded by the
// pre-phase photon counts) is the paper's choice and the zero-value
// default; BalanceNaive is the contiguous-blocks strawman Table 5.2
// quantifies against it.
const (
	BalanceBinPack = dist.BalanceBinPack
	BalanceNaive   = dist.BalanceNaive
)

// Config parameterizes a simulation.
type Config struct {
	// Photons is the number of photons to emit (required).
	Photons int64
	// Seed selects the deterministic random stream (default 1).
	Seed int64
	// Engine selects serial, shared-memory or distributed execution.
	Engine Engine
	// Workers is the goroutine count for EngineShared and the rank count
	// for EngineDistributed and EngineGeo; 0 means runtime.GOMAXPROCS and
	// a negative count is an error. EngineSerial ignores it.
	Workers int
	// BatchSize is the photons per exchange round of EngineDistributed
	// (traced between all-to-all tally exchanges; default 500, the
	// paper's starting size) and EngineGeo (emitted per drain round;
	// default 2000). The distributed engines apply these defaults.
	// EngineSerial and EngineShared ignore it. Results are bit-identical
	// at every batch size; only throughput changes.
	BatchSize int
	// Balance selects the forest-ownership load balancing strategy
	// (EngineDistributed only; default BalanceBinPack).
	Balance Balance
	// SplitSigma overrides the 3σ bin-split criterion (0 = default 3).
	SplitSigma float64
	// Sections is the per-axis (s,t) section count per defining polygon
	// (Sections² trees per polygon). 0 keeps each engine's default: one
	// tree per polygon for serial, shared and geo, 4×4 sections for
	// distributed; the engines apply these defaults. Serial, shared and
	// distributed runs at the same explicit Sections produce bit-identical
	// forests; EngineGeo owns whole polygons and rejects Sections > 1.
	Sections int
	// Progress, when non-nil, receives the photons finished so far and
	// the total while the chosen engine runs.
	Progress Progress
}

// Progress is a streaming completion callback: photons fully finished so
// far, out of total. Calls are monotone in done and end at done == total.
type Progress = engine.ProgressFunc

// Stats are the simulation counters.
type Stats = core.Stats

// Solution is a completed, viewable, durable global-illumination answer.
type Solution struct {
	inner *answer.Solution
	stats Stats
}

// Stats returns the simulation counters. For a Solution loaded from an
// answer file they are recovered from the file rather than carried through
// it: PhotonsEmitted is stored; Reflections and BinSplits are exact
// reconstructions from the forest (every tally beyond the one-per-photon
// emission is a reflection; every split added exactly one leaf). The
// trajectory counters that leave no trace in the answer — Absorptions,
// Escapes and TotalPathLength — do not survive a save/load round-trip and
// read zero.
func (s *Solution) Stats() Stats { return s.stats }

// Summary is the compact ==-comparable digest of a solution's radiance
// database; see the answer package.
type Summary = answer.Summary

// Summary digests the solution: equal summaries mean bit-identical
// forests. This is the conformance matrix's equality.
func (s *Solution) Summary() Summary { return s.inner.Summarize() }

// SceneName returns the scene the solution was computed for.
func (s *Solution) SceneName() string { return s.inner.SceneName }

// EmittedPhotons returns the emission count.
func (s *Solution) EmittedPhotons() int64 { return s.inner.EmittedPhotons }

// Leaves returns the number of view-dependent bins in the answer.
func (s *Solution) Leaves() int { return s.inner.Forest.TotalLeaves() }

// MemoryBytes estimates the answer's storage footprint.
func (s *Solution) MemoryBytes() int64 { return s.inner.Forest.MemoryBytes() }

// Save writes the solution to w in the answer-file format.
func (s *Solution) Save(w io.Writer) error { return s.inner.Save(w) }

// SaveFile writes the solution to path.
func (s *Solution) SaveFile(path string) error { return s.inner.SaveFile(path) }

// SolutionFromResult wraps an engine-level result (from the internal core,
// shared or dist packages) in the public Solution type. In-module tools and
// examples that drive the engines directly use it to reach the viewer.
func SolutionFromResult(res *core.Result) *Solution {
	return &Solution{inner: answer.FromResult(res), stats: res.Stats}
}

// recoveredStats rebuilds the counters an answer file determines; see
// Solution.Stats for which counters are recoverable and why.
func recoveredStats(inner *answer.Solution) Stats {
	return Stats{
		PhotonsEmitted: inner.EmittedPhotons,
		Reflections:    inner.Forest.TotalPhotons() - inner.EmittedPhotons,
		BinSplits:      int64(inner.Forest.TotalLeaves() - inner.Forest.NumTrees()),
	}
}

// Load reads a solution written by Save, recovering the reconstructible
// simulation counters (see Stats).
func Load(r io.Reader) (*Solution, error) {
	inner, err := answer.Load(r)
	if err != nil {
		return nil, err
	}
	return &Solution{inner: inner, stats: recoveredStats(inner)}, nil
}

// LoadFile reads a solution from path.
func LoadFile(path string) (*Solution, error) {
	inner, err := answer.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return &Solution{inner: inner, stats: recoveredStats(inner)}, nil
}

// Scene rebuilds the geometry a loaded solution was computed for.
func (s *Solution) Scene() (*Scene, error) { return s.inner.Scene() }

// SceneByName constructs one of the built-in scenes — "quickstart",
// "cornell-box", "harpsichord-room", "computer-lab" — or a procedurally
// generated scene from a spec string like
// "gen:office/seed=42/rooms=2/density=0.7" (see GenFamilies). Generated
// scenes are deterministic: the same spec always builds the identical
// geometry, and serial, shared and distributed simulations of it produce
// bit-identical answers just like the built-ins.
func SceneByName(name string) (*Scene, error) {
	ctor, err := scenes.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("photon: %w", err)
	}
	return ctor()
}

// SceneNames lists the built-in scene names.
func SceneNames() []string { return scenes.Names() }

// GenFamilies lists the procedural scene-generator family names usable in
// "gen:<family>/seed=N/param=value/..." specs accepted by SceneByName.
func GenFamilies() []string { return scenegen.Families() }

// Simulate runs the global illumination simulation and returns the answer.
func Simulate(scene *Scene, cfg Config) (*Solution, error) {
	if cfg.Photons <= 0 {
		return nil, fmt.Errorf("photon: Config.Photons must be positive")
	}
	eng, err := cfg.Engine.impl()
	if err != nil {
		return nil, err
	}
	coreCfg := core.DefaultConfig(cfg.Photons)
	if cfg.Seed != 0 {
		coreCfg.Seed = cfg.Seed
	}
	if cfg.SplitSigma > 0 {
		coreCfg.Bin.SplitSigma = cfg.SplitSigma
	}
	coreCfg.Sections = cfg.Sections
	sol, err := eng.Run(scene, engine.Config{
		Core:      coreCfg,
		Workers:   cfg.Workers,
		BatchSize: cfg.BatchSize,
		Balance:   cfg.Balance,
		Progress:  cfg.Progress,
	})
	if err != nil {
		return nil, err
	}
	return &Solution{inner: answer.FromResult(sol.Result), stats: sol.Stats}, nil
}

// Render produces the image seen by cam from the solution, tone-mapped and
// sampled per opts (the zero value is the default). The scene must be the
// one the solution was computed for (use Solution.Scene after loading from
// disk).
func Render(scene *Scene, sol *Solution, cam Camera, opts RenderOptions) (*image.RGBA, error) {
	return view.Render(scene, sol.inner.Forest, cam, opts)
}

// WritePNG encodes an image as PNG.
func WritePNG(w io.Writer, img image.Image) error { return view.WritePNG(w, img) }

// WritePNGFile encodes an image as PNG to path, surfacing the Close error
// too — on many filesystems that is where a failed write actually reports.
func WritePNGFile(path string, img image.Image) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := view.WritePNG(f, img); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Radiance queries the solution directly: the outgoing radiance of
// defining polygon patch at bilinear position (s,t) in direction (r²,θ) of
// the paper's cylindrical parameterization.
func (s *Solution) Radiance(scene *Scene, patch int, sParam, tParam, r2, theta float64) (Vec3, error) {
	if patch < 0 || patch >= len(scene.Geom.Patches) {
		return Vec3{}, fmt.Errorf("photon: patch %d out of range", patch)
	}
	rgb := s.inner.Forest.Radiance(patch,
		bintree.Point{S: sParam, T: tParam, R2: r2, Theta: theta},
		scene.Geom.Patches[patch].Area())
	return V(rgb.R, rgb.G, rgb.B), nil
}
