//photon:deterministic — rank-order tally application keeps the assembled forest bit-identical to serial;
// photon-lint (nondeterm, floatreduce) polices this file — see DESIGN.md.

package dist

// Coordinated checkpoint/restart for the replicated engine — the
// checkpoint/restart pattern from the fault-tolerance literature rather
// than restart-from-scratch. After every configured number of exchange
// rounds, all ranks gather their complete mutable state (owned section
// trees, counters) to rank 0, which persists one Checkpoint. When a
// worker dies mid-job, the coordinator restarts the attempt with every
// rank — survivors and the replacement alike — restored from the last
// Checkpoint, and the round loop continues where it left off. Because
// photon trajectories are pure functions of (seed, index) and tally
// application is photon-ordered, the resumed run's remaining rounds are
// bit-identical to the ones the failed attempt would have produced: the
// final forest fingerprints equal to an uninterrupted run's.

import (
	"encoding/gob"
	"fmt"
	"os"

	"repro/internal/core"
)

// CheckpointVersion pins the checkpoint encoding. Load rejects files
// written by a binary with a different pin, like the join handshake
// rejects mismatched workers.
const CheckpointVersion = 1

// RankSnapshot is one rank's complete mutable engine state as of a round
// boundary: the trees it owns and its counters. It is the message of the
// one gather collective: a per-round checkpoint carries cloned trees, the
// final gather of every run the live ones.
type RankSnapshot struct {
	Rank      int
	RankStats RankStats
	Stats     core.Stats
	Sections  []OwnedSection
}

// Checkpoint is the coordinated whole-job snapshot after Round completed.
type Checkpoint struct {
	Version int
	Ranks   int
	Round   int
	Snaps   []RankSnapshot
}

// forRank returns rank me's snapshot, validating that the checkpoint
// matches the world it is being restored into.
func (ck *Checkpoint) forRank(me, size int) (*RankSnapshot, error) {
	if ck.Version != CheckpointVersion {
		return nil, fmt.Errorf("dist: checkpoint version %d, this binary speaks %d", ck.Version, CheckpointVersion)
	}
	if ck.Ranks != size {
		return nil, fmt.Errorf("dist: checkpoint has %d ranks, world has %d", ck.Ranks, size)
	}
	for i := range ck.Snaps {
		if ck.Snaps[i].Rank == me {
			return &ck.Snaps[i], nil
		}
	}
	return nil, fmt.Errorf("dist: checkpoint has no snapshot for rank %d", me)
}

// ByteSize reports a realistic wire size for the snapshot gather.
func (s RankSnapshot) ByteSize() int {
	n := 128
	for _, sec := range s.Sections {
		n += 8 + int(sec.Tree.MemoryBytes())
	}
	return n
}

// checkpoint is the per-round snapshot gather: the final gather's
// collective with cloned trees, which rank 0 assembles into a Checkpoint
// and hands to sink. The sink runs before the next round starts, so the
// live trees cannot mutate under serialization.
func (r *rankState) checkpoint(round int, sink func(*Checkpoint) error) error {
	snaps, err := r.gatherSnapshots(true)
	if err != nil || snaps == nil || sink == nil {
		return err
	}
	ck := &Checkpoint{Version: CheckpointVersion, Ranks: len(snaps), Round: round, Snaps: snaps}
	if err := sink(ck); err != nil {
		return fmt.Errorf("dist: persisting checkpoint at round %d: %w", round, err)
	}
	return nil
}

// restore puts this rank's owned trees and counters back exactly as they
// stood after ck's round and returns the round to continue from. Photon
// trajectories are pure functions of (seed, index), so the rounds replayed
// after restore reproduce the original run's remaining work bit for bit.
func (r *rankState) restore(ck *Checkpoint) (int, error) {
	snap, err := ck.forRank(r.comm.Rank(), r.comm.Size())
	if err != nil {
		return 0, err
	}
	// Clone on the way in as well: the engine mutates these trees, and the
	// Checkpoint must stay pristine for a later retry (a second failure
	// before the next snapshot resumes from it again).
	for _, s := range snap.Sections {
		r.forest.ReplaceTree(s.Unit, s.Tree.Clone())
	}
	r.rs, r.st = snap.RankStats, snap.Stats
	return ck.Round + 1, nil
}

// SaveCheckpoint atomically writes ck to path (write temp, rename).
func SaveCheckpoint(path string, ck *Checkpoint) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(ck); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint, rejecting
// version mismatches.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ck Checkpoint
	if err := gob.NewDecoder(f).Decode(&ck); err != nil {
		return nil, fmt.Errorf("dist: decoding checkpoint %s: %w", path, err)
	}
	if ck.Version != CheckpointVersion {
		return nil, fmt.Errorf("dist: checkpoint %s is version %d, this binary speaks %d", path, ck.Version, CheckpointVersion)
	}
	return &ck, nil
}
