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
	"repro/internal/bintree"
	"repro/internal/core"
	"repro/internal/loadbalance"
	"repro/internal/mpi"
	"repro/internal/scenes"
)

// repPlan is the deterministic pre-run state every rank of the replicated
// engine derives identically — normalized config, simulator, ownership
// assignment, and round count. In-process ranks share one instance;
// multi-process ranks each compute their own redundantly (the paper's
// redundant pre-phase), which is what lets a worker join a job knowing only
// the scene spec and config.
type repPlan struct {
	cfg    Config
	sim    *core.Simulator
	asn    *loadbalance.Assignment
	rounds int
}

// planReplicated normalizes cfg and computes the replicated engine's
// deterministic plan.
func planReplicated(scene *scenes.Scene, cfg Config) (*repPlan, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	sim, err := core.NewSimulator(scene, cfg.Core)
	if err != nil {
		return nil, err
	}

	// Load-balancing pre-phase: sample per-section photon loads with a
	// short redundant simulation whose tallies are discarded. Every rank
	// would compute identical counts from the identical stream, so the
	// driver computes them once on behalf of all ranks.
	weights := prePhaseWeights(sim, cfg.Sections, defaultPrePhase(cfg.Core.Photons))
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
	return &repPlan{cfg: cfg, sim: sim, asn: asn, rounds: rounds}, nil
}

// Run executes the replicated-geometry distributed simulation: the rank
// program on every rank of an in-process world, from one shared plan.
func Run(scene *scenes.Scene, cfg Config) (*Result, error) {
	plan, err := planReplicated(scene, cfg)
	if err != nil {
		return nil, err
	}
	return inProcess(plan.cfg.Ranks, func(c mpi.Communicator) (*Result, error) {
		return plan.runRank(c, RankOptions{})
	})
}

// prePhaseWeights traces prePhotons photons into a scratch forest and
// returns the per-section photon counts the packer will balance. The
// scratch tallies are discarded: the pre-phase estimates load only, so the
// main run still emits exactly Core.Photons. It samples the exact prefix
// of the main run's photon stream, so the load estimate is of the photons
// actually traced.
func prePhaseWeights(sim *core.Simulator, sections int, prePhotons int64) []int64 {
	scratch := bintree.NewForestSectioned(len(sim.Scene().Geom.Patches), sections, sim.Config().Bin)
	var st core.Stats
	core.NewWave(sim, 0).Trace(0, prePhotons, &st, func(t core.Tally) {
		scratch.Add(int(t.Patch), t.Point, t.Power)
	})
	return scratch.PhotonCounts()
}

// runRank is one rank's whole life: trace its cyclic share of the global
// photon chunks round by round through one per-rank core.Wave, exchange
// tallies after every round and apply them in rank (= photon) order,
// checkpoint when asked, then take part in the final gather.
func (p *repPlan) runRank(c mpi.Communicator, opt RankOptions) (*Result, error) {
	me, size := c.Rank(), c.Size()
	photons := p.sim.Config().Photons
	batch := int64(p.cfg.BatchSize)
	owners := p.asn.Owner
	forest := bintree.NewForestSectioned(len(p.sim.Scene().Geom.Patches), p.cfg.Sections, p.sim.Config().Bin)
	r := newRankState(c, forest, owners, p.cfg.Obs)

	startRound := 0
	if opt.Resume != nil {
		var err error
		if startRound, err = r.restore(opt.Resume); err != nil {
			return nil, err
		}
	}

	// Foreign tallies encoded per destination; owned tallies buffered so
	// they can be applied at this rank's slot in the round's rank order.
	// route is the Wave's deliver: it sees the chunk's tallies in photon
	// order. An applied batch is recycled as next round's outbox to its sender.
	outbox := make([][]byte, size)
	var mine, tallies []core.Tally
	route := func(t core.Tally) {
		unit := forest.UnitOf(int(t.Patch), t.Point)
		if owner := owners[unit]; owner == me {
			mine = append(mine, t)
		} else {
			outbox[owner] = appendTally(outbox[owner], t)
			r.rs.TalliesForwarded++
		}
	}
	wave := core.NewWave(p.sim, 0)

	for round := startRound; round < p.rounds; round++ {
		// This round's chunk for this rank: global chunk round*size+me.
		chunk := int64(round)*int64(size) + int64(me)
		lo := chunk * batch
		hi := min(photons, lo+batch)
		traceSpan := r.spans.StartSpan("simulate/round/trace")
		mine = mine[:0]
		wave.Trace(lo, hi, &r.st, route)
		traceSpan.End()
		if hi > lo {
			r.rs.PhotonsTraced += hi - lo
		}

		// Batched all-to-all tally exchange (Figure 5.3). One round's
		// payloads are applied in rank order — source ranks hold ascending
		// chunks, so every section tree sees its tallies in global
		// photon-index order, exactly as the serial engine would apply
		// them. This rank's own slot holds its buffered owned tallies.
		exchangeSpan := r.spans.StartSpan("simulate/round/exchange")
		in, err := mpi.AllToAll(c, tagTally, outbox)
		exchangeSpan.End()
		if err != nil {
			return nil, err
		}
		applySpan := r.spans.StartSpan("simulate/round/apply")
		for src, body := range in {
			ts := mine
			if src != me {
				if tallies, err = appendBatch(tallies[:0], body, tallyBytes, tallyAt); err != nil {
					return nil, err
				}
				ts = tallies
			}
			for _, t := range ts {
				r.apply(t)
			}
			outbox[src] = body[:0]
		}
		applySpan.End()
		r.rs.Batches++

		if me == 0 && p.cfg.Progress != nil {
			p.cfg.Progress(min(photons, int64(round+1)*int64(size)*batch), photons)
		}

		// Per-round checkpoint: every rank ships its owned trees and
		// counters to rank 0, which persists the assembled snapshot. The
		// gather is a collective — CheckpointEvery is part of the wire
		// contract and must agree across ranks.
		if opt.CheckpointEvery > 0 && (round+1)%opt.CheckpointEvery == 0 && round != p.rounds-1 {
			if err := r.checkpoint(round, opt.CheckpointSink); err != nil {
				return nil, err
			}
		}
		if opt.AfterRound != nil {
			opt.AfterRound(round)
		}
	}
	return r.gatherResult(p.sim.Scene(), p.asn)
}
