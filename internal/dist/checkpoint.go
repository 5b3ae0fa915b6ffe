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
	"fmt"
	"os"

	"repro/internal/core"
)

// CheckpointVersion pins the checkpoint encoding (wire.go). Decoding
// rejects bytes written by a binary with a different pin, like the join
// handshake rejects mismatched workers. Version 2: the fixed little-endian
// message set replaced gob.
const CheckpointVersion = 2

// RankSnapshot is one rank's complete mutable engine state as of a round
// boundary: its counters and the owned trees that have received a tally
// (the rest equal fresh trees). Encoded (wire.go), it is the message of
// the one gather collective — a per-round checkpoint keeps the gathered
// bytes, the final gather of every run decodes them into rank 0's forest.
type RankSnapshot struct {
	RankStats RankStats
	Stats     core.Stats
	Sections  []OwnedSection
}

// Checkpoint is the coordinated whole-job snapshot after Round completed:
// every rank's encoded RankSnapshot, in rank order. Holding bytes, not
// trees, keeps it immune to the live run: restoring decodes fresh trees,
// so a checkpoint can seed any number of retries.
type Checkpoint struct {
	Round int
	Snaps [][]byte
}

// checkpoint is the per-round snapshot gather: the final gather's
// collective, whose bytes rank 0 keeps as a Checkpoint and hands to sink.
func (r *rankState) checkpoint(round int, sink func(*Checkpoint) error) error {
	snaps, err := r.gatherSnapshots()
	if err != nil || snaps == nil || sink == nil {
		return err
	}
	if snaps[0], err = r.snapshot(); err != nil {
		return err
	}
	if err := sink(&Checkpoint{Round: round, Snaps: snaps}); err != nil {
		return fmt.Errorf("dist: persisting checkpoint at round %d: %w", round, err)
	}
	return nil
}

// restore puts this rank's owned trees and counters back exactly as they
// stood after ck's round and returns the round to continue from. Photon
// trajectories are pure functions of (seed, index), so the rounds replayed
// after restore reproduce the original run's remaining work bit for bit.
func (r *rankState) restore(ck *Checkpoint) (int, error) {
	me, size := r.comm.Rank(), r.comm.Size()
	if len(ck.Snaps) != size {
		return 0, fmt.Errorf("dist: checkpoint has %d ranks, world has %d", len(ck.Snaps), size)
	}
	snap, err := r.install(ck.Snaps[me])
	if err != nil {
		return 0, err
	}
	if snap.RankStats.Rank != me {
		return 0, fmt.Errorf("dist: checkpoint slot %d holds rank %d's snapshot", me, snap.RankStats.Rank)
	}
	r.rs, r.st = snap.RankStats, snap.Stats
	return ck.Round + 1, nil
}

// SaveCheckpoint atomically writes ck to path (write temp, rename).
func SaveCheckpoint(path string, ck *Checkpoint) error {
	data, err := ck.MarshalBinary()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o666); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint, rejecting
// version mismatches.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ck Checkpoint
	if err := ck.UnmarshalBinary(data); err != nil {
		return nil, fmt.Errorf("dist: decoding checkpoint %s: %w", path, err)
	}
	return &ck, nil
}
