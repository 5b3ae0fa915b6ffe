//photon:deterministic — rank-order tally application keeps the assembled forest bit-identical to serial;
// photon-lint (nondeterm, floatreduce) polices this file — see DESIGN.md.

// Package dist implements the distributed-memory Photon engines — the
// paper's central contribution (chapter 5) plus the dissertation's
// chapter-6 "Massive Parallelism" variant. Each engine is one SPMD rank
// program written against mpi.Communicator, exactly as the paper's C code
// is written against MPI: RunRank/GeoRunRank execute it as one rank of a
// world on either transport (over TCP, one OS process per rank), and
// Run/GeoRun execute it on every rank of an in-process world, from one
// shared plan. Every run ends in the same collective gather to rank 0.
//
// Two engines share the physics of internal/core:
//
//   - Run (replicated geometry, Figure 5.3): every rank holds the whole
//     scene; the bin forest is partitioned into sections whose ownership a
//     short redundant pre-phase plus Best-Fit bin packing assigns to ranks.
//     Each rank traces its photon share and exchanges batched tallies with
//     the owning ranks via all-to-all every BatchSize photons.
//
//   - GeoRun (distributed geometry, chapter 6): space is partitioned into
//     octree root regions owned by ranks, and photon *flights* are
//     forwarded between space owners instead of tallies between bin
//     owners. No replicated-forest exchange takes place; Result.Forwards
//     counts the migrations.
//
// Both engines draw every photon's whole life from its private
// core.PhotonStream substream, so trajectories are pure functions of
// (seed, photon index) at any rank count. Run additionally applies each
// section tree's tallies in global photon-index order (chunk-cyclic
// assignment, sender-rank-order application), which makes its assembled
// forest bit-identical to a serial run at the same sectioning; GeoRun's
// forest is assembled in arrival order — deterministic per rank count,
// with serial-identical statistics.
package dist

import (
	"fmt"

	"repro/internal/bintree"
	"repro/internal/core"
	"repro/internal/loadbalance"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// Balance selects the forest-ownership strategy of the load-balancing
// pre-phase (section 5, "Load Balancing"; Table 5.2 compares the two).
type Balance int

const (
	// BalanceBinPack is greedy Best-Fit bin packing seeded by the
	// pre-phase photon counts — the paper's choice, and the default.
	BalanceBinPack Balance = iota
	// BalanceNaive assigns contiguous section blocks regardless of load,
	// the strawman whose "disastrous results" motivate bin packing.
	BalanceNaive
)

// String implements fmt.Stringer.
func (b Balance) String() string {
	switch b {
	case BalanceBinPack:
		return "bin-pack"
	case BalanceNaive:
		return "naive"
	}
	return "unknown"
}

// Message tags. Each collective gets its own tag space; AllToAll receives
// per source, so tags never need to vary per round.
const (
	tagTally   = 100 // replicated engine: batched tally exchange
	tagGather  = 101 // both engines: RankSnapshot gather to rank 0 (checkpoints and results)
	tagFlight  = 102 // geo engine: photon-flight forwarding
	tagGeoTal  = 103 // geo engine: off-owner tally routing
	tagTraffic = 105 // both engines: per-rank traffic-row gather to rank 0
	tagWork    = 110 // geo engine: termination AllReduce (uses +1 too)
)

// Config parameterizes a distributed simulation. The zero value of Balance
// is BalanceBinPack, so only deviations need setting. A zero BatchSize or
// Core.Sections takes the engine's default, which Run and GeoRun each fill
// in once, when they plan (planReplicated, planGeo).
type Config struct {
	// Core carries the physics parameters (photons, seed, split rule).
	// Core.Sections is the per-axis section count per defining polygon;
	// the ownership unit is one section tree, so 4 gives 16 units per
	// polygon for the packer to spread. 0 means 4 for Run and 1 for
	// GeoRun, which owns whole polygons by region and refuses more.
	Core core.Config
	// Ranks is the number of message-passing workers.
	Ranks int
	// BatchSize is the photons traced between tally exchanges (Run) or
	// the emissions per drain round (GeoRun). 0 means 500 for Run, the
	// paper's starting size, and 2000 for GeoRun.
	BatchSize int
	// Balance selects the forest-ownership strategy (Run only).
	Balance Balance
	// Progress, when non-nil, receives the photons globally finished so
	// far and the total. Rank 0 reports it once per exchange round.
	Progress func(done, total int64)
	// Obs, when non-nil, records the engines' interior phases. Rank 0 —
	// representative under the bulk-synchronous schedule — records one
	// span per round phase ("simulate/round/trace", "simulate/round/
	// exchange", "simulate/round/apply") and one "simulate/gather" span
	// around the final collective (snapshot gather, traffic rows and the
	// finalize barrier). Every rank records its wall time up to that
	// gather in the "rank_wall_ms" series, and GeoRun additionally sums
	// the per-round forwarded-flight counts into "geo_round_forwards".
	Obs *obs.Run
}

// DefaultConfig returns a configuration at the default physics for
// photons on ranks; BatchSize and Core.Sections stay zero, so each engine
// applies its own defaults.
func DefaultConfig(photons int64, ranks int) Config {
	return Config{Core: core.DefaultConfig(photons), Ranks: ranks}
}

// defaultPrePhase is the redundant pre-phase sample size Run uses to
// estimate per-section load before ownership is assigned: 5% of the
// budget clamped to [1000, 20000].
func defaultPrePhase(photons int64) int64 {
	p := photons / 20
	if p < 1000 {
		p = 1000
	}
	if p > 20000 {
		p = 20000
	}
	return p
}

// normalize rejects what no engine can run and fills a zero BatchSize and
// Core.Sections with the calling engine's defaults. A negative value is an
// error, never a default.
func (c *Config) normalize(batch, sections int) error {
	if c.Core.Photons <= 0 {
		return fmt.Errorf("dist: Core.Photons must be positive, got %d", c.Core.Photons)
	}
	if c.Ranks <= 0 {
		return fmt.Errorf("dist: Ranks must be positive, got %d", c.Ranks)
	}
	if c.Balance != BalanceBinPack && c.Balance != BalanceNaive {
		return fmt.Errorf("dist: unknown balance strategy %d", c.Balance)
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("dist: BatchSize must be >= 0 (0 = engine default), got %d", c.BatchSize)
	}
	if c.Core.Sections < 0 {
		return fmt.Errorf("dist: Core.Sections must be >= 0 (0 = engine default), got %d", c.Core.Sections)
	}
	if c.BatchSize == 0 {
		c.BatchSize = batch
	}
	if c.Core.Sections == 0 {
		c.Core.Sections = sections
	}
	return nil
}

// RankStats records one rank's share of the work — the per-processor rows
// of Table 5.2.
type RankStats struct {
	// Rank is the processor index.
	Rank int
	// PhotonsTraced counts photons this rank emitted and traced.
	PhotonsTraced int64
	// TalliesApplied counts bin updates applied to sections this rank
	// owns (locally produced and received). This is the load statistic
	// the balancer equalizes.
	TalliesApplied int64
	// TalliesForwarded counts bin updates produced here but owned
	// elsewhere, queued for exchange.
	TalliesForwarded int64
	// Forwards counts photon flights this rank handed to another space
	// owner (GeoRun only).
	Forwards int64
	// Batches counts exchange rounds this rank participated in.
	Batches int
}

// Result is a completed distributed simulation. It embeds the assembled
// core result (scene, forest, stats) and adds the distribution telemetry.
type Result struct {
	*core.Result
	// PerRank has one entry per rank in rank order.
	PerRank []RankStats
	// Traffic is the substrate's message/byte accounting for the run,
	// assembled from every rank's row.
	Traffic mpi.Traffic
	// Owners maps each ownership unit to its rank: forest sections for
	// Run, defining polygons for GeoRun.
	Owners []int
	// Balance is the pre-phase assignment Run packed (nil for GeoRun,
	// which owns by geometry, not by load).
	Balance *loadbalance.Assignment
	// Forwards is the sum of the per-rank photon-flight migrations between
	// space owners (GeoRun only; always 0 for Run).
	Forwards int64
}

// OwnedSection carries one section tree from its owning rank to rank 0
// inside a RankSnapshot.
type OwnedSection struct {
	Unit int
	Tree *bintree.Tree
}

// closedErr wraps a Recv failure with the communicator's recorded cause,
// so a TCP peer's death names itself instead of collapsing into a generic
// "world closed".
func closedErr(c mpi.Communicator, during string) error {
	if err := c.Err(); err != nil {
		return fmt.Errorf("dist: world closed during %s: %w", during, err)
	}
	return fmt.Errorf("dist: world closed during %s", during)
}

// shares splits photons across ranks, remainder to the low ranks — the
// same convention as the shared-memory engine.
func shares(photons int64, ranks int) []int64 {
	per := photons / int64(ranks)
	rem := photons % int64(ranks)
	out := make([]int64, ranks)
	for r := range out {
		out[r] = per
		if int64(r) < rem {
			out[r]++
		}
	}
	return out
}
