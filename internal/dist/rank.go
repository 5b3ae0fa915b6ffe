//photon:deterministic — rank-order tally application keeps the assembled forest bit-identical to serial;
// photon-lint (nondeterm, floatreduce) polices this file — see DESIGN.md.

package dist

// The rank program. Each engine is one SPMD function of a communicator:
// RunRank/GeoRunRank execute it as one rank of any mpi.Communicator world
// — in practice a TCPComm mesh built by the coordinator/worker join
// protocol, one OS process per rank — and Run/GeoRun execute it on every
// rank of an in-process world. There is no second implementation, so
// in-process and multi-process runs produce bit-identical forests,
// identical stats and identical traffic — the cross-process conformance
// contract, pinned by the subprocess tests at the repo root.
//
// A multi-process rank derives the whole deterministic plan (simulator,
// pre-phase load estimate, ownership assignment, round count) redundantly
// from the scene spec and config — the paper's redundant pre-phase
// generalized to process startup — so it needs nothing from its peers
// before the first exchange round; the in-process engines plan once and
// share the plan. Every message is one of the fixed encodings in wire.go,
// on either transport. Every run ends in one collective: each rank sends
// rank 0 its encoded RankSnapshot (counters plus the trees it owns — the
// message the per-round checkpoint also gathers) and then its traffic row.
// Rank 0 returns the assembled Result; every other rank returns nil.

import (
	"fmt"
	"time"

	"repro/internal/bintree"
	"repro/internal/core"
	"repro/internal/loadbalance"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/scenes"
)

// RankOptions carries the multi-process entry points' per-rank knobs. The
// zero value — no checkpointing, no resume — is the in-process engines'
// configuration.
type RankOptions struct {
	// CheckpointEvery enables coordinated checkpointing every N completed
	// rounds (replicated engine only). Must agree across all ranks — the
	// snapshot gather is a collective.
	CheckpointEvery int
	// CheckpointSink receives each assembled Checkpoint on rank 0. A sink
	// error aborts the run: a checkpoint that cannot be persisted is not a
	// checkpoint.
	CheckpointSink func(*Checkpoint) error
	// Resume restarts the round loop from a prior Checkpoint. All ranks
	// must be given the same Checkpoint.
	Resume *Checkpoint
	// AfterRound is a fault-injection hook: called after each completed
	// round (and its checkpoint), on every rank.
	AfterRound func(round int)
}

// RunRank executes one rank of the replicated-geometry engine on c.
// cfg.Ranks must equal c.Size(). Rank 0 returns the assembled Result;
// other ranks return (nil, nil) on success.
func RunRank(c mpi.Communicator, scene *scenes.Scene, cfg Config, opt RankOptions) (*Result, error) {
	if cfg.Ranks != c.Size() {
		return nil, fmt.Errorf("dist: config wants %d ranks, world has %d", cfg.Ranks, c.Size())
	}
	plan, err := planReplicated(scene, cfg)
	if err != nil {
		return nil, err
	}
	return plan.runRank(c, opt)
}

// GeoRunRank executes one rank of the geometry-distributed engine on c.
// Checkpoint/resume is not supported for geo (its in-flight photon state
// spans ranks mid-round); pass a zero RankOptions.
func GeoRunRank(c mpi.Communicator, scene *scenes.Scene, cfg Config, opt RankOptions) (*Result, error) {
	if opt.CheckpointEvery > 0 || opt.Resume != nil {
		return nil, fmt.Errorf("dist: checkpoint/resume supports the replicated engine only")
	}
	if cfg.Ranks != c.Size() {
		return nil, fmt.Errorf("dist: config wants %d ranks, world has %d", cfg.Ranks, c.Size())
	}
	plan, err := planGeo(scene, cfg)
	if err != nil {
		return nil, err
	}
	return plan.runRank(c)
}

// inProcess runs rank on every rank of a fresh in-process world and
// returns rank 0's Result: the in-process stand-in for launching one
// process per rank.
func inProcess(ranks int, rank func(c mpi.Communicator) (*Result, error)) (*Result, error) {
	var res *Result
	_, err := mpi.Run(ranks, func(c *mpi.Comm) error {
		r, err := rank(c)
		if c.Rank() == 0 {
			res = r
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// rankState is what the two engines' rank programs share: the
// communicator, the local forest (only units this rank owns ever receive
// tallies), the counters the final gather reports, and the observation
// handles.
type rankState struct {
	comm   mpi.Communicator
	forest *bintree.Forest
	owners []int
	rs     RankStats
	st     core.Stats
	obs    *obs.Run
	// spans receives the round-phase spans: the run's observer on rank 0,
	// nil elsewhere. The rounds are bulk-synchronous, so rank 0's timings
	// stand for the schedule's wall time, while summing spans across
	// concurrent ranks would not.
	spans *obs.Run
	start time.Time
}

func newRankState(c mpi.Communicator, forest *bintree.Forest, owners []int, o *obs.Run) *rankState {
	r := &rankState{comm: c, forest: forest, owners: owners, rs: RankStats{Rank: c.Rank()}, obs: o}
	if c.Rank() == 0 {
		r.spans = o
	}
	if o.Enabled() {
		r.start = time.Now()
	}
	return r
}

// apply adds one tally to a unit this rank owns.
func (r *rankState) apply(t core.Tally) {
	if r.forest.Add(int(t.Patch), t.Point, t.Power) {
		r.st.BinSplits++
	}
	r.rs.TalliesApplied++
}

// snapshot encodes this rank's counters and the owned trees that have
// received a tally. An untouched tree equals the fresh one every forest
// starts with, so it need not travel.
func (r *rankState) snapshot() ([]byte, error) {
	me := r.comm.Rank()
	snap := RankSnapshot{RankStats: r.rs, Stats: r.st}
	for unit, owner := range r.owners {
		if t := r.forest.Tree(unit); owner == me && t.Total() > 0 {
			snap.Sections = append(snap.Sections, OwnedSection{Unit: unit, Tree: t})
		}
	}
	return appendSnapshot(nil, &snap)
}

// install decodes a snapshot and puts its trees into this rank's forest.
func (r *rankState) install(body []byte) (*RankSnapshot, error) {
	snap, err := decodeSnapshot(body)
	if err != nil {
		return nil, err
	}
	for _, s := range snap.Sections {
		if s.Unit < 0 || s.Unit >= r.forest.NumTrees() {
			return nil, fmt.Errorf("dist: snapshot of rank %d holds unit %d of %d", snap.RankStats.Rank, s.Unit, r.forest.NumTrees())
		}
		r.forest.ReplaceTree(s.Unit, s.Tree)
	}
	return snap, nil
}

// gatherSnapshots is the one collective behind checkpoints and results:
// every other rank sends rank 0 its encoded snapshot, and rank 0 returns
// the bodies in rank order, its own (local) slot nil.
func (r *rankState) gatherSnapshots() ([][]byte, error) {
	c := r.comm
	if c.Rank() != 0 {
		snap, err := r.snapshot()
		if err != nil {
			return nil, err
		}
		return nil, c.Send(0, tagGather, snap)
	}
	snaps := make([][]byte, c.Size())
	for src := 1; src < c.Size(); src++ {
		p, _, ok := c.Recv(src, tagGather)
		if !ok {
			return nil, closedErr(c, "snapshot gather")
		}
		snaps[src] = p
	}
	return snaps, nil
}

// gatherResult ends a rank's run. It records the rank's wall time, gathers
// every rank's snapshot to rank 0 and then every rank's traffic row (each
// row taken after the snapshot send, so only the row messages themselves go
// uncounted). Rank 0 installs the gathered trees into its own forest —
// ownership is disjoint, so assembly is exact, with none of the approximate
// merging of divergent adaptive binnings that ownership exists to avoid —
// and merges the rows into the full pair matrix, which keeps
// Traffic.SentByRank/RecvByRank meaningful when ranks are processes that
// each observe only their own endpoints. Rank 0 returns the Result; other
// ranks return nil.
func (r *rankState) gatherResult(scene *scenes.Scene, balance *loadbalance.Assignment) (*Result, error) {
	c := r.comm
	me, size := c.Rank(), c.Size()
	if r.obs.Enabled() {
		r.obs.SetIndexed("rank_wall_ms", me, float64(time.Since(r.start))/float64(time.Millisecond))
	}
	span := r.spans.StartSpan("simulate/gather")
	defer span.End()
	snaps, err := r.gatherSnapshots()
	if err != nil {
		return nil, err
	}
	row := c.TrafficStats()
	if me != 0 {
		if err := c.Send(0, tagTraffic, appendTrafficRow(nil, row.PerPair[me], row.PerPairBytes[me])); err != nil {
			return nil, err
		}
		// Finalize barrier: hold the mesh open until rank 0 has consumed
		// every gather message. A rank that closed its sockets the moment
		// its own sends returned would EOF rank 0's readers and kill
		// delivery from ranks still draining.
		return nil, c.Barrier()
	}

	res := &Result{
		Result:  &core.Result{Scene: scene, Forest: r.forest},
		PerRank: make([]RankStats, size),
		Traffic: mpi.Traffic{PerPair: make([][]int64, size), PerPairBytes: make([][]int64, size)},
		Owners:  r.owners,
		Balance: balance,
	}
	res.PerRank[0], res.Stats, res.Forwards = r.rs, r.st, r.rs.Forwards
	for src := 1; src < size; src++ {
		snap, err := r.install(snaps[src])
		if err != nil {
			return nil, err
		}
		res.PerRank[src] = snap.RankStats
		res.Stats.Add(snap.Stats)
		res.Forwards += snap.RankStats.Forwards
	}
	res.EmittedPhotons = res.Stats.PhotonsEmitted

	tr := &res.Traffic
	tr.PerPair[0], tr.PerPairBytes[0] = row.PerPair[0], row.PerPairBytes[0]
	for src := 1; src < size; src++ {
		p, _, ok := c.Recv(src, tagTraffic)
		if !ok {
			return nil, closedErr(c, "traffic gather")
		}
		if tr.PerPair[src], tr.PerPairBytes[src], err = decodeTrafficRow(p, size); err != nil {
			return nil, err
		}
	}
	for i := range tr.PerPair {
		for j := range tr.PerPair[i] {
			tr.Messages += tr.PerPair[i][j]
			tr.Bytes += tr.PerPairBytes[i][j]
		}
	}

	// Release the finalize barrier: everything is assembled, peers may
	// now tear down their meshes.
	if err := c.Barrier(); err != nil {
		return nil, err
	}
	return res, nil
}
