//photon:deterministic — engine adapters must not let wall clocks or map order steer results;
// photon-lint (nondeterm, floatreduce) polices this file — see DESIGN.md.

// Package engine defines the one interface every Photon parallelization
// strategy implements, so that callers — the public photon API, the
// commands, the experiment harness — drive serial, shared-memory,
// replicated-distributed and geometry-distributed execution through a
// single Run call with uniform configuration and progress reporting.
//
// The engines are interchangeable in a strong sense: serial, shared and
// distributed runs with the same Core config (seed, photons, sections)
// produce bit-identical statistics and bit-identical bin forests, because
// every photon draws from its private core.PhotonStream substream and every
// engine applies each tree's tallies in photon-index order. The conformance
// matrix in the repository root pins this down for every bundled scene.
// (Geo agrees on all trajectory statistics; its forest is assembled in
// arrival order, so bin-split layout may differ.)
package engine

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/scenes"
)

// ProgressFunc receives streaming completion callbacks: photons fully
// finished so far, out of total. Calls are strictly monotone in done and
// end with done == total.
type ProgressFunc func(done, total int64)

// Config is the engine-independent run configuration; engines ignore the
// knobs that do not apply to them. Each knob has one meaning, and a zero
// value takes the default of the package that implements the engine.
type Config struct {
	// Core carries the physics: photons, seed, split rule, sectioning.
	// Core.Sections 0 means one tree per polygon for serial, shared and
	// geo (core and dist apply it) and 4×4 sections for distributed (dist
	// applies it).
	Core core.Config
	// Workers is the goroutine count (shared) or rank count (distributed,
	// geo); 0 means runtime.GOMAXPROCS. Serial ignores it.
	Workers int
	// BatchSize is the photons per exchange round of the distributed
	// engines: traced between tally exchanges (distributed) or emitted
	// per drain round (geo). 0 means dist's default, 500 and 2000. Serial
	// and shared ignore it. Results are bit-identical at every batch size
	// (geo: its statistics).
	BatchSize int
	// Balance selects the replicated-distributed forest-ownership strategy.
	Balance dist.Balance
	// Progress, when non-nil, streams completion callbacks.
	Progress ProgressFunc
	// Obs, when non-nil, collects the run's observability: hierarchical
	// phase spans (simulate/round/trace…), throughput metrics, per-rank
	// photon and tally counts, the load-imbalance ratio, and per-rank
	// communication volume. nil (the default) disables instrumentation at
	// the cost of one branch per phase boundary — zero allocations, no
	// clock reads. Instrumentation observes, never reorders: the
	// bit-identity conformance contract holds with Obs attached.
	Obs *obs.Run
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// validate rejects configurations no engine can run. Every engine applies
// it at the top of Run, so an invalid Config fails the same way — an error,
// never a panic and never a silent reinterpretation — regardless of which
// parallelization strategy is selected. Zero values that mean "use the
// default" (Workers, BatchSize, Sections) remain valid; it is the
// explicitly nonsensical values that must not slip into a worker pool or
// rank loop.
func (c Config) validate() error {
	if c.Core.Photons <= 0 {
		return fmt.Errorf("engine: Config.Core.Photons must be positive, got %d", c.Core.Photons)
	}
	if c.Workers < 0 {
		return fmt.Errorf("engine: Config.Workers must be >= 0 (0 = all CPUs), got %d", c.Workers)
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("engine: Config.BatchSize must be >= 0 (0 = engine default), got %d", c.BatchSize)
	}
	if c.Core.Sections < 0 {
		return fmt.Errorf("engine: Config.Core.Sections must be >= 0 (0 = one tree per polygon), got %d", c.Core.Sections)
	}
	if c.Core.MaxBounces < 0 {
		return fmt.Errorf("engine: Config.Core.MaxBounces must be >= 0 (0 = default), got %d", c.Core.MaxBounces)
	}
	return nil
}

// Solution is the uniform result of any engine run: the core answer plus,
// for the message-passing engines, the distribution telemetry.
type Solution struct {
	*core.Result
	// Dist is non-nil for the distributed engines.
	Dist *dist.Result
}

// Engine is one parallelization strategy of the Photon simulator.
type Engine interface {
	// Name is the strategy's stable identifier ("serial", "shared",
	// "distributed", "geo").
	Name() string
	// Run executes the simulation to completion.
	Run(scene *scenes.Scene, cfg Config) (*Solution, error)
}

// The four engines.
var (
	Serial      Engine = serialEngine{}
	Shared      Engine = sharedEngine{}
	Distributed Engine = distEngine{}
	Geo         Engine = geoEngine{}
)

// All returns every engine in presentation order.
func All() []Engine { return []Engine{Serial, Shared, Distributed, Geo} }

// ByName resolves an engine by its Name.
func ByName(name string) (Engine, error) {
	for _, e := range All() {
		if e.Name() == name {
			return e, nil
		}
	}
	return nil, fmt.Errorf("engine: unknown engine %q (have serial, shared, distributed, geo)", name)
}
