//photon:deterministic — rank-order tally application keeps the assembled forest bit-identical to serial;
// photon-lint (nondeterm, floatreduce) polices this file — see DESIGN.md.

package dist

// The replicated-geometry engine (Figure 5.3): every rank holds the whole
// scene and a full-shape (mostly empty) sectioned forest, but owns only the
// sections the load balancer assigned to it. The photon stream is divided
// into global chunks of BatchSize photons dealt cyclically to ranks (rank r
// traces chunks r, r+R, r+2R, …); tallies destined for foreign sections are
// queued and exchanged all-to-all at the end of every round, so each
// section's adaptive binning evolves on exactly one rank and the final
// gather is exact.
//
// Every photon draws from its private core.PhotonStream substream, and each
// owner applies one round's chunk payloads in rank order — i.e. in global
// chunk order, i.e. in photon-index order. Every section tree therefore
// sees its tallies in exactly the serial engine's order, which makes the
// assembled forest bit-identical to a serial run at any rank count or batch
// size (the cross-engine conformance guarantee), while application stays
// online with memory bounded by one round's tallies.

import (
	"time"

	"repro/internal/bintree"
	"repro/internal/core"
	"repro/internal/loadbalance"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/scenes"
)

// repPlan is the deterministic pre-run state every rank of the replicated
// engine derives identically — simulator, ownership assignment, and round
// count. In-process ranks share one instance; multi-process ranks each
// compute their own redundantly (the paper's redundant pre-phase), which
// is what lets a worker join a job knowing only the scene spec and config.
type repPlan struct {
	sim    *core.Simulator
	binCfg bintree.Config
	asn    *loadbalance.Assignment
	rounds int
}

// planReplicated normalizes cfg and computes the replicated engine's
// deterministic plan. cfg must already be normalized.
func planReplicated(scene *scenes.Scene, cfg Config) (*repPlan, error) {
	sim, err := core.NewSimulator(scene, cfg.Core)
	if err != nil {
		return nil, err
	}
	binCfg := sim.Config().Bin
	nPatches := len(scene.Geom.Patches)

	// Load-balancing pre-phase: sample per-section photon loads with a
	// short redundant simulation whose tallies are discarded. Every rank
	// would compute identical counts from the identical stream, so the
	// driver computes them once on behalf of all ranks.
	weights := prePhaseWeights(sim, nPatches, cfg, binCfg)
	var asn *loadbalance.Assignment
	if cfg.Balance == BalanceNaive {
		asn, err = loadbalance.Naive(weights, cfg.Ranks)
	} else {
		asn, err = loadbalance.BestFit(weights, cfg.Ranks)
	}
	if err != nil {
		return nil, err
	}

	// The photon stream is cut into global chunks of BatchSize photons,
	// dealt cyclically to ranks. Every rank participates in the same number
	// of exchange rounds (the collective must stay aligned); ranks whose
	// chunk index runs past the end trace zero in the tail rounds.
	chunks := (cfg.Core.Photons + int64(cfg.BatchSize) - 1) / int64(cfg.BatchSize)
	rounds := int((chunks + int64(cfg.Ranks) - 1) / int64(cfg.Ranks))
	if rounds == 0 {
		rounds = 1
	}
	return &repPlan{sim: sim, binCfg: binCfg, asn: asn, rounds: rounds}, nil
}

// Run executes the replicated-geometry distributed simulation.
func Run(scene *scenes.Scene, cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	plan, err := planReplicated(scene, cfg)
	if err != nil {
		return nil, err
	}
	sim, binCfg, asn, rounds := plan.sim, plan.binCfg, plan.asn, plan.rounds

	perRank := make([]RankStats, cfg.Ranks)
	statsPerRank := make([]core.Stats, cfg.Ranks)
	var finalForest *bintree.Forest

	world, err := mpi.Run(cfg.Ranks, func(c *mpi.Comm) error {
		me := c.Rank()
		forest, rs, st, err := runRank(c, sim, cfg, asn.Owner, rounds, binCfg, rankHooks{})
		if err != nil {
			return err
		}
		perRank[me] = rs
		statsPerRank[me] = st
		if me == 0 {
			finalForest = forest
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var total core.Stats
	for _, st := range statsPerRank {
		total.Add(st)
	}
	return &Result{
		Result: &core.Result{
			Scene:          scene,
			Forest:         finalForest,
			Stats:          total,
			EmittedPhotons: total.PhotonsEmitted,
		},
		PerRank: perRank,
		Traffic: world.TrafficStats(),
		Owners:  asn.Owner,
		Balance: asn,
	}, nil
}

// prePhaseWeights traces cfg.PrePhotons photons into a scratch forest and
// returns the per-section photon counts the packer will balance. The
// scratch tallies are discarded: the pre-phase estimates load only, so the
// main run still emits exactly Core.Photons. It samples the exact prefix
// of the main run's photon stream, so the load estimate is of the photons
// actually traced.
func prePhaseWeights(sim *core.Simulator, nPatches int, cfg Config, binCfg bintree.Config) []int64 {
	scratch := bintree.NewForestSectioned(nPatches, cfg.Sections, binCfg)
	var st core.Stats
	core.NewWave(sim, 0).Trace(0, cfg.PrePhotons, &st, func(t core.Tally) {
		scratch.Add(int(t.Patch), t.Point, t.Power)
	})
	return scratch.PhotonCounts()
}

// rankHooks carries the multi-process driver's fault-tolerance plumbing
// into the round loop. The zero value — no checkpointing, no resume — is
// the in-process engine's configuration; checkpointEvery must agree on
// every rank because the snapshot gather is a collective.
type rankHooks struct {
	// checkpointEvery gathers a full-state snapshot to rank 0 every this
	// many completed rounds; 0 disables checkpointing.
	checkpointEvery int
	// sink receives each assembled Checkpoint on rank 0. A sink error
	// aborts the run: a checkpoint that cannot be persisted is not a
	// checkpoint.
	sink func(*Checkpoint) error
	// resume restarts the round loop after the checkpoint's Round, with
	// every rank's forest and counters restored. All ranks must resume
	// from the same Checkpoint.
	resume *Checkpoint
	// afterRound, when non-nil, runs after each completed round (and its
	// checkpoint). It exists for fault-injection: a worker under test
	// kills itself here, mid-job, at a deterministic round boundary.
	afterRound func(round int)
}

// runRank is one rank's whole life: trace its cyclic share of the global
// photon chunks round by round through one per-rank core.Wave, exchange
// tallies after every round and apply them in rank (= photon) order, then
// take part in the final gather.
func runRank(c mpi.Communicator, sim *core.Simulator, cfg Config, owners []int,
	rounds int, binCfg bintree.Config, hooks rankHooks,
) (*bintree.Forest, RankStats, core.Stats, error) {
	me := c.Rank()
	size := c.Size()
	photons := sim.Config().Photons
	batch := int64(cfg.BatchSize)
	nPatches := sim.Scene().Geom.Patches
	forest := bintree.NewForestSectioned(len(nPatches), cfg.Sections, binCfg)
	rs := RankStats{Rank: me}
	var st core.Stats
	var splits int64

	// Resume: restore this rank's owned trees and counters exactly as
	// they stood after the checkpointed round, then continue with the
	// next one. Photon trajectories are pure functions of (seed, index),
	// so the rounds replayed after restore reproduce the original run's
	// remaining work bit-for-bit.
	startRound := 0
	if hooks.resume != nil {
		snap, err := hooks.resume.forRank(me, size)
		if err != nil {
			return nil, rs, st, err
		}
		// Clone on the way in as well: the engine mutates these trees, and
		// the Checkpoint must stay pristine for a later retry (a second
		// failure before the next snapshot resumes from it again).
		for _, s := range snap.Sections {
			forest.ReplaceTree(s.Unit, s.Tree.Clone())
		}
		rs = snap.RankStats
		st = snap.Stats
		splits, st.BinSplits = st.BinSplits, 0
		startRound = hooks.resume.Round + 1
	}

	// Round-phase spans are recorded by rank 0 only: the rounds are
	// bulk-synchronous, so rank 0's trace/exchange/apply timings are
	// representative of the schedule's wall time, while summing spans
	// across concurrent ranks would not be. Every rank still records its
	// own wall time below.
	var spanObs *obs.Run
	if me == 0 {
		spanObs = cfg.Obs
	}
	var rankStart time.Time
	if cfg.Obs.Enabled() {
		rankStart = time.Now()
	}

	apply := func(t core.Tally) {
		if forest.Add(int(t.Patch), t.Point, t.Power) {
			splits++
		}
		rs.TalliesApplied++
	}
	// Foreign tallies per destination; owned tallies buffered so they can
	// be applied at this rank's slot in the round's rank order. route is
	// the Wave's deliver: it sees the chunk's tallies in photon order.
	var outbox [][]core.Tally
	var mine []core.Tally
	route := func(t core.Tally) {
		unit := forest.UnitOf(int(t.Patch), t.Point)
		if owner := owners[unit]; owner == me {
			mine = append(mine, t)
		} else {
			outbox[owner] = append(outbox[owner], t)
			rs.TalliesForwarded++
		}
	}
	wave := core.NewWave(sim, 0)

	for round := startRound; round < rounds; round++ {
		// This round's chunk for this rank: global chunk round*size+me.
		chunk := int64(round)*int64(size) + int64(me)
		lo := chunk * batch
		hi := min(photons, lo+batch)
		traceSpan := spanObs.StartSpan("simulate/round/trace")
		outbox = make([][]core.Tally, size)
		mine = nil
		wave.Trace(lo, hi, &st, route)
		traceSpan.End()
		if hi > lo {
			rs.PhotonsTraced += hi - lo
		}

		// Batched all-to-all tally exchange (Figure 5.3). One round's
		// payloads are applied in rank order — source ranks hold ascending
		// chunks, so every section tree sees its tallies in global
		// photon-index order, exactly as the serial engine would apply
		// them.
		exchangeSpan := spanObs.StartSpan("simulate/round/exchange")
		in, err := mpi.AllToAll(c, tagTally, outbox)
		exchangeSpan.End()
		if err != nil {
			return nil, rs, st, err
		}
		applySpan := spanObs.StartSpan("simulate/round/apply")
		for src := 0; src < size; src++ {
			if src == me {
				for _, t := range mine {
					apply(t)
				}
				continue
			}
			for _, t := range in[src] {
				apply(t)
			}
		}
		applySpan.End()
		rs.Batches++

		if me == 0 && cfg.Progress != nil {
			cfg.Progress(min(photons, int64(round+1)*int64(size)*batch), photons)
		}

		// Per-round checkpoint: every rank ships its owned trees and
		// counters to rank 0, which persists the assembled snapshot. The
		// gather is a collective — checkpointEvery is part of the wire
		// contract and must agree across ranks.
		if hooks.checkpointEvery > 0 && (round+1)%hooks.checkpointEvery == 0 && round != rounds-1 {
			if err := checkpointRound(c, round, forest, owners, rs, st, splits, hooks.sink); err != nil {
				return nil, rs, st, err
			}
		}
		if hooks.afterRound != nil {
			hooks.afterRound(round)
		}
	}
	st.BinSplits = splits
	if cfg.Obs.Enabled() {
		cfg.Obs.SetIndexed("rank_wall_ms", me, float64(time.Since(rankStart))/float64(time.Millisecond))
	}

	gatherSpan := spanObs.StartSpan("simulate/gather")
	final, err := gatherForest(c, forest, owners, len(nPatches), cfg.Sections, binCfg)
	gatherSpan.End()
	return final, rs, st, err
}
