// Package coord implements the multi-process job protocol: one
// coordinator process (which is also rank 0 of the simulation) and N-1
// worker processes that join it over TCP, build the rank mesh, and each
// execute one rank of a distributed engine.
//
// The control protocol is deliberately small. Every control message is one
// mpi frame whose body is the message's JSON — the same length-prefixed,
// size-capped framing the rank mesh speaks. A worker dials the
// coordinator, introduces itself with a versioned hello (the coordinator
// rejects any binary speaking a different wire version — dist's message
// encodings and the engine round structure are both part of the format), then
// loops: open a fresh mesh listener, advertise it as Ready, receive an
// Assign naming its rank, the full mesh address list, the job spec, and
// (after a failure) the checkpoint to resume from, run the rank, report
// Done, and go back to Ready. Heartbeats flow worker→coordinator the
// whole time; a silent worker is declared dead and its attempt aborted.
//
// Failure detection needs no abort broadcast: the mesh is a full TCP
// graph, so one rank dying closes sockets on every peer, each peer's
// reader fails its mailbox, and every blocked Recv in the round loop
// returns an error naming the dead link. Survivors report Done with the
// error and re-enter the Ready loop; the coordinator waits for a
// replacement worker, reloads the last checkpoint, and reruns the
// attempt. Determinism makes recovery exact: the resumed rounds
// reproduce the uninterrupted run bit for bit.
package coord

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/mpi"
)

// WireVersion pins the control protocol AND the mesh message encoding.
// Bump it whenever a control message field, a dist message layout, a
// message tag, or the round structure changes; the join handshake rejects
// mismatched binaries so a stale worker can never silently corrupt a job.
// Version 3: frames everywhere, JSON control bodies, dist's fixed
// little-endian message set, and the checkpoint carried as its bytes.
// Version 4: JobSpec no longer carries PrePhotons; the pre-phase size is
// derived from the photon budget.
const WireVersion = 4

// Control message kinds. One envelope struct with a Kind discriminant
// keeps every control message one JSON shape.
const (
	kindHello     = "hello"     // worker→coord: version handshake
	kindReject    = "reject"    // coord→worker: handshake refused, reason attached
	kindReady     = "ready"     // worker→coord: idle, mesh listener open at MeshAddr
	kindAssign    = "assign"    // coord→worker: run rank Rank of Job over Addrs
	kindHeartbeat = "heartbeat" // worker→coord: liveness
	kindDone      = "done"      // worker→coord: rank finished (Reason = error text, "" = success)
	kindShutdown  = "shutdown"  // coord→worker: job complete, exit
)

// ctrlMsg is the single control-stream envelope. Only the fields of the
// active Kind are meaningful.
type ctrlMsg struct {
	Kind     string
	Version  int    // hello
	Reason   string // reject, done
	MeshAddr string // ready
	// assign:
	Rank       int
	Addrs      []string
	Attempt    int
	Job        JobSpec
	Checkpoint []byte // dist.Checkpoint.MarshalBinary; nil starts from scratch
}

// writeMsg sends one control message: a frame whose body is its JSON.
func writeMsg(w io.Writer, m ctrlMsg) error {
	body, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return mpi.WriteFrame(w, 0, body)
}

// readMsg reads one control message.
func readMsg(r io.Reader) (m ctrlMsg, err error) {
	_, body, err := mpi.ReadFrame(r)
	if err == nil {
		err = json.Unmarshal(body, &m)
	}
	return m, err
}

// JobSpec is the deterministic job description. Every rank — coordinator
// and workers alike — derives the identical dist.Config and scene from
// it, the redundant pre-phase generalized to process startup.
type JobSpec struct {
	// Scene is a scenes.ByName spec: a built-in name or a gen:… string.
	Scene string
	// Engine selects "replicated" (checkpointable) or "geo".
	Engine string
	// Photons and Seed parameterize the physics.
	Photons int64
	Seed    int64
	// Ranks is the world size, coordinator included.
	Ranks int
	// BatchSize is the photons per exchange round and Sections the
	// per-axis forest sections; 0 takes the engine's default (dist
	// applies it), and a negative value is refused.
	BatchSize int
	Sections  int
	// CheckpointEvery gathers a recovery snapshot to the coordinator
	// every this many rounds (replicated engine only; 0 disables).
	CheckpointEvery int
}

// distConfig derives the engine configuration every rank must agree on.
// Zero BatchSize and Sections pass through as zero, so the engine's
// planner fills in its own defaults, as it does for dist.DefaultConfig.
func (j JobSpec) distConfig() dist.Config {
	return dist.Config{
		Core:      core.Config{Photons: j.Photons, Seed: j.Seed, Sections: j.Sections},
		Ranks:     j.Ranks,
		BatchSize: j.BatchSize,
	}
}

func (j JobSpec) validate() error {
	switch {
	case j.Scene == "":
		return fmt.Errorf("coord: job has no scene")
	case j.Photons <= 0:
		return fmt.Errorf("coord: job wants %d photons", j.Photons)
	case j.Ranks < 2:
		return fmt.Errorf("coord: a multi-process job needs at least 2 ranks, got %d", j.Ranks)
	case j.BatchSize < 0:
		return fmt.Errorf("coord: BatchSize must be >= 0 (0 = engine default), got %d", j.BatchSize)
	case j.Sections < 0:
		return fmt.Errorf("coord: Sections must be >= 0 (0 = engine default), got %d", j.Sections)
	case j.Engine != "" && j.Engine != "replicated" && j.Engine != "geo":
		return fmt.Errorf("coord: unknown engine %q", j.Engine)
	case j.Engine == "geo" && j.CheckpointEvery > 0:
		return fmt.Errorf("coord: the geo engine does not support checkpointing")
	}
	return nil
}

// heartbeatInterval is how often a worker proves liveness. The
// coordinator's timeout (CoordOptions.HeartbeatTimeout) should be a
// comfortable multiple of it.
const heartbeatInterval = 250 * time.Millisecond
