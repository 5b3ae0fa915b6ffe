//photon:deterministic — rank-order tally application keeps the assembled forest bit-identical to serial;
// photon-lint (nondeterm, floatreduce) polices this file — see DESIGN.md.

package dist

// The geometry-distributed engine — the dissertation's chapter-6 "Massive
// Parallelism" design. Space is partitioned into the eight octree root
// regions; each region (and every defining polygon whose centroid lies in
// it) is owned by one rank. A photon is always traced by the rank owning
// the space it is interacting with: when a flight's next intersection falls
// in foreign space, the whole flight (ray, power, polarization, bounce
// count, random-stream position) is forwarded to the owner instead of any
// tallies being exchanged against a replicated forest. Tallies are applied
// by the polygon's owner, which for all but region-straddling polygons is
// the rank already tracing the hit.
//
// Every photon carries its own private random substream, so its physics is
// one deterministic function of (seed, photon index) no matter how many
// ranks trade it around — this is what makes the engine's statistics agree
// with the replicated engine's at any rank count.

import (
	"fmt"

	"repro/internal/bintree"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mpi"
	"repro/internal/rng"
	"repro/internal/scenes"
	"repro/internal/vecmath"
)

// geoFlight is a photon in transit between space owners.
type geoFlight struct {
	core.Flight
	// RngState is the photon's private substream position, resumed by
	// the receiving rank.
	RngState uint64
}

// geoPlan is the deterministic pre-run state every geo rank derives
// identically: normalized config, simulator, polygon ownership, and
// per-rank photon shares.
type geoPlan struct {
	cfg        Config
	sim        *core.Simulator
	patchOwner []int
	share      []int64
	starts     []int64
}

// planGeo normalizes cfg and computes the geo engine's deterministic plan.
// Its defaults are 2000-photon emission rounds and an unsectioned forest.
// Geo owns whole polygons by region — space ownership, not forest
// ownership, is its distribution axis — so it refuses a sectioned forest
// rather than silently running unsectioned.
func planGeo(scene *scenes.Scene, cfg Config) (*geoPlan, error) {
	if err := cfg.normalize(2000, 1); err != nil {
		return nil, err
	}
	if cfg.Core.Sections > 1 {
		return nil, fmt.Errorf("dist: geo does not support sectioned forests (Sections=%d)", cfg.Core.Sections)
	}
	sim, err := core.NewSimulator(scene, cfg.Core)
	if err != nil {
		return nil, err
	}
	nPatches := len(scene.Geom.Patches)

	// Polygon ownership: the rank owning the region of the centroid.
	// Ranks beyond the eight root regions own no space; they still emit
	// and immediately forward, which keeps small scenes correct (if
	// wasteful) at any rank count.
	patchOwner := make([]int, nPatches)
	for i := range scene.Geom.Patches {
		patchOwner[i] = regionRank(scene, scene.Geom.Patches[i].Centroid(), cfg.Ranks)
	}

	share := shares(cfg.Core.Photons, cfg.Ranks)
	starts := make([]int64, cfg.Ranks)
	for r := 1; r < cfg.Ranks; r++ {
		starts[r] = starts[r-1] + share[r-1]
	}
	return &geoPlan{cfg: cfg, sim: sim, patchOwner: patchOwner, share: share, starts: starts}, nil
}

// GeoRun executes the geometry-distributed simulation: the rank program on
// every rank of an in-process world, from one shared plan.
func GeoRun(scene *scenes.Scene, cfg Config) (*Result, error) {
	plan, err := planGeo(scene, cfg)
	if err != nil {
		return nil, err
	}
	return inProcess(plan.cfg.Ranks, plan.runRank)
}

// runRank is one geo rank's whole life: the round loop over its photon
// share, then the final gather.
func (p *geoPlan) runRank(c mpi.Communicator) (*Result, error) {
	sim := p.sim
	g := &geoRank{
		rankState: newRankState(c, bintree.NewForest(len(sim.Scene().Geom.Patches), sim.Config().Bin), p.patchOwner, p.cfg.Obs),
		scene:     sim.Scene(),
		sim:       sim,
		seed:      sim.Config().Seed,
		batch:     int64(p.cfg.BatchSize),
		photons:   sim.Config().Photons,
		progress:  p.cfg.Progress,
	}
	if err := g.run(p.share[c.Rank()], p.starts[c.Rank()]); err != nil {
		return nil, err
	}
	return g.gatherResult(g.scene, nil)
}

// regionRank maps a world point to the rank owning its octree root region.
// RegionOf/Bounds are part of the octree's stable surface: space ownership
// keys on the root octant regardless of how the index stores its nodes (the
// PR 4 flattening changed the layout, not this contract).
func regionRank(scene *scenes.Scene, p vecmath.Vec3, ranks int) int {
	reg := scene.Geom.Octree().RegionOf(p)
	if reg < 0 {
		reg = 0
	}
	return reg % ranks
}

// geoRank is one rank's state for the duration of a geo run; owners are
// the polygon owners.
type geoRank struct {
	*rankState
	scene    *scenes.Scene
	sim      *core.Simulator
	seed     int64
	batch    int64
	photons  int64
	progress func(done, total int64)
	lastDone int64
}

func (g *geoRank) me() int { return g.comm.Rank() }

// route delivers a tally to the hit polygon's owner: locally for owned
// polygons, via the round's tally exchange for region-straddlers.
func (g *geoRank) route(t core.Tally, tallyOut [][]byte) {
	if owner := g.owners[t.Patch]; owner == g.me() {
		g.apply(t)
	} else {
		tallyOut[owner] = appendTally(tallyOut[owner], t)
		g.rs.TalliesForwarded++
	}
}

// trace advances one flight until it terminates in this rank's space or
// crosses into foreign space (then it is queued for forwarding). The
// physics is core's own — Intersect then Simulator.Interact — with a
// region-ownership check between intersection and interaction.
func (g *geoRank) trace(f geoFlight, photonsOut, tallyOut [][]byte) {
	stream := rng.NewFromState(f.RngState)
	deliver := func(t core.Tally) { g.route(t, tallyOut) }
	var h geom.Hit
	for f.Bounces < g.sim.Config().MaxBounces {
		if !g.scene.Geom.Intersect(f.Ray, &h) {
			g.st.Escapes++
			return
		}
		if owner := regionRank(g.scene, h.Point, g.comm.Size()); owner != g.me() {
			f.RngState = stream.State()
			photonsOut[owner] = appendFlight(photonsOut[owner], f)
			g.rs.Forwards++
			return
		}
		if !g.sim.Interact(stream, &f.Flight, &h, &g.st, deliver) {
			return
		}
	}
	// Path length cap reached: count as absorbed.
	g.st.Absorptions++
}

// emit generates one photon: the emission tally is routed to the emitting
// polygon's owner, and the flight begins here (forwarding immediately if
// the first hit is foreign). The photon's whole life — emission draws and
// flight draws — comes from its private core.PhotonStream substream, so
// its trajectory matches every other engine's photon globalIdx exactly.
func (g *geoRank) emit(globalIdx int64, photonsOut, tallyOut [][]byte) {
	stream := core.PhotonStream(g.seed, globalIdx)
	fl := g.sim.EmitPhoton(stream, &g.st, func(t core.Tally) { g.route(t, tallyOut) })
	g.rs.PhotonsTraced++
	g.trace(geoFlight{
		Flight:   fl,
		RngState: stream.State(),
	}, photonsOut, tallyOut)
}

// run is the rank's round loop: drain forwarded flights, emit a batch,
// exchange flights and tallies, and stop when a global reduction reports
// no photon anywhere is still airborne or unemitted.
func (g *geoRank) run(myShare, startIdx int64) error {
	c := g.comm
	remaining := myShare
	idx := startIdx
	var pending []geoFlight
	var tallies []core.Tally
	// Applied batches are recycled as the next round's buffers to their senders.
	photonsOut := make([][]byte, c.Size())
	tallyOut := make([][]byte, c.Size())

	round := 0
	for {
		traceSpan := g.spans.StartSpan("simulate/round/trace")
		for _, f := range pending {
			g.trace(f, photonsOut, tallyOut)
		}
		pending = pending[:0]

		n := min(g.batch, remaining)
		for i := int64(0); i < n; i++ {
			g.emit(idx, photonsOut, tallyOut)
			idx++
		}
		remaining -= n
		traceSpan.End()

		if g.obs.Enabled() {
			var fwd int64
			for _, fl := range photonsOut {
				fwd += int64(len(fl) / flightBytes)
			}
			// Same round index on every rank (the rounds are aligned by the
			// collectives), so the series entry is the global per-round
			// forwarded-flight count.
			g.obs.AddIndexed("geo_round_forwards", round, float64(fwd))
		}

		exchangeSpan := g.spans.StartSpan("simulate/round/exchange")
		pin, err := mpi.AllToAll(c, tagFlight, photonsOut)
		if err != nil {
			exchangeSpan.End()
			return err
		}
		tin, err := mpi.AllToAll(c, tagGeoTal, tallyOut)
		exchangeSpan.End()
		if err != nil {
			return err
		}
		applySpan := g.spans.StartSpan("simulate/round/apply")
		for src := 0; src < c.Size(); src++ {
			if src == g.me() {
				continue
			}
			if tallies, err = appendBatch(tallies[:0], tin[src], tallyBytes, tallyAt); err != nil {
				return err
			}
			if pending, err = appendBatch(pending, pin[src], flightBytes, flightAt); err != nil {
				return err
			}
			for _, t := range tallies {
				g.apply(t)
			}
			photonsOut[src], tallyOut[src] = pin[src][:0], tin[src][:0]
		}
		applySpan.End()
		g.rs.Batches++
		round++

		total, err := mpi.AllReduceSum(c, tagWork, float64(remaining)+float64(len(pending)))
		if err != nil {
			return err
		}
		if g.me() == 0 && g.progress != nil {
			// The reduction counts unemitted plus airborne photons, so the
			// complement is the photons fully terminated everywhere. A
			// round in which every flight was forwarded finishes nothing;
			// skip it to keep the callback strictly monotone.
			if done := g.photons - int64(total); done > g.lastDone {
				g.lastDone = done
				g.progress(done, g.photons)
			}
		}
		if total == 0 {
			return nil
		}
	}
}
