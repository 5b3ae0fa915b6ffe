package coord

import (
	"fmt"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/mpi"
	"repro/internal/scenes"
)

// WorkerOptions parameterizes RunWorker.
type WorkerOptions struct {
	// MeshHost is the host this worker's mesh listener binds and
	// advertises (default 127.0.0.1; set to a routable address for
	// multi-machine runs).
	MeshHost string
	// FailAfterRound, when >= 0, kills the process with os.Exit(3) after
	// that round of its first assignment — deterministic mid-job fault
	// injection for the kill/resume tests.
	FailAfterRound int
	// Logf receives progress lines (default log.Printf).
	Logf func(format string, args ...any)
}

// RunWorker joins the coordinator at addr and serves rank assignments
// until the coordinator shuts the job down. It returns nil after an
// orderly shutdown, or the error that ended the control connection.
func RunWorker(addr string, opt WorkerOptions) error {
	if opt.MeshHost == "" {
		opt.MeshHost = "127.0.0.1"
	}
	logf := opt.Logf
	if logf == nil {
		logf = log.Printf
	}

	conn, err := dialControl(addr)
	if err != nil {
		return err
	}
	defer conn.Close()

	// The heartbeat goroutine and the main loop share the connection.
	var sendMu sync.Mutex
	send := func(m ctrlMsg) error {
		sendMu.Lock()
		defer sendMu.Unlock()
		return writeMsg(conn, m)
	}

	if err := send(ctrlMsg{Kind: kindHello, Version: WireVersion}); err != nil {
		return fmt.Errorf("coord: sending hello: %w", err)
	}
	stopBeat := make(chan struct{})
	defer close(stopBeat)
	go func() {
		t := time.NewTicker(heartbeatInterval)
		defer t.Stop()
		for {
			select {
			case <-stopBeat:
				return
			case <-t.C:
				if send(ctrlMsg{Kind: kindHeartbeat}) != nil {
					return
				}
			}
		}
	}()

	failAfter := -1
	if opt.FailAfterRound >= 0 {
		failAfter = opt.FailAfterRound
	}

	// The previous assignment's mesh. It must stay open until the
	// coordinator speaks again: this rank passing the finalize barrier
	// does not mean its peers have — rank 0's barrier broadcast to a slow
	// peer travels on a different connection than our FIN, so closing now
	// can poison that peer mid-barrier. The coordinator sends shutdown or
	// the next assign only after collecting every rank's Done, and each
	// Done follows that rank's barrier, so the next control message is
	// the proof that tearing down is safe.
	var prevMesh *mpi.TCPComm
	closePrev := func() {
		if prevMesh != nil {
			prevMesh.Close()
			prevMesh = nil
		}
	}
	defer closePrev()

	for {
		ln, err := net.Listen("tcp", net.JoinHostPort(opt.MeshHost, "0"))
		if err != nil {
			return fmt.Errorf("coord: opening mesh listener: %w", err)
		}
		if err := send(ctrlMsg{Kind: kindReady, MeshAddr: ln.Addr().String()}); err != nil {
			ln.Close()
			return fmt.Errorf("coord: sending ready: %w", err)
		}

		m, err := readMsg(conn)
		if err != nil {
			ln.Close()
			return fmt.Errorf("coord: control connection lost: %w", err)
		}
		closePrev()
		switch m.Kind {
		case kindShutdown:
			ln.Close()
			return nil
		case kindReject:
			ln.Close()
			return fmt.Errorf("coord: coordinator rejected this worker: %s", m.Reason)
		case kindAssign:
			// fall through below
		default:
			ln.Close()
			return fmt.Errorf("coord: unexpected control message %q", m.Kind)
		}

		logf("assigned rank %d of %d (attempt %d)", m.Rank, len(m.Addrs), m.Attempt)
		var runErr error
		prevMesh, runErr = runAssignment(m, ln, failAfter)
		failAfter = -1 // the injected fault applies to the first assignment only
		reason := ""
		if runErr != nil {
			reason = runErr.Error()
			logf("rank %d attempt %d failed: %v", m.Rank, m.Attempt, runErr)
		} else {
			logf("rank %d attempt %d done", m.Rank, m.Attempt)
		}
		if err := send(ctrlMsg{Kind: kindDone, Reason: reason}); err != nil {
			return fmt.Errorf("coord: reporting done: %w", err)
		}
	}
}

// runAssignment executes one rank of one attempt. The mesh listener is
// owned by the returned TCPComm, which the caller closes once the
// coordinator confirms the whole attempt has wound down (see RunWorker).
func runAssignment(m ctrlMsg, ln net.Listener, failAfter int) (*mpi.TCPComm, error) {
	if err := m.Job.validate(); err != nil {
		ln.Close()
		return nil, err
	}
	scene, err := loadScene(m.Job.Scene)
	if err != nil {
		ln.Close()
		return nil, err
	}
	opts := dist.RankOptions{CheckpointEvery: m.Job.CheckpointEvery}
	if m.Checkpoint != nil {
		opts.Resume = new(dist.Checkpoint)
		if err := opts.Resume.UnmarshalBinary(m.Checkpoint); err != nil {
			ln.Close()
			return nil, err
		}
	}
	comm, err := mpi.NewTCPCommWithListener(m.Rank, m.Addrs, ln)
	if err != nil {
		return nil, err
	}

	if failAfter >= 0 {
		opts.AfterRound = func(round int) {
			if round >= failAfter {
				// Simulate a crashed machine: no goodbye, no flush.
				os.Exit(3)
			}
		}
	}
	_, err = m.Job.runRank(comm, scene, m.Job.distConfig(), opts)
	return comm, err
}

// runRank executes this process's rank of the job on c: the one place the
// coordinator and the workers pick the engine's rank program.
func (j JobSpec) runRank(c mpi.Communicator, scene *scenes.Scene, cfg dist.Config, opt dist.RankOptions) (*dist.Result, error) {
	if j.Engine == "geo" {
		return dist.GeoRunRank(c, scene, cfg, opt)
	}
	return dist.RunRank(c, scene, cfg, opt)
}

// loadScene resolves a JobSpec scene spec (built-in name or gen:… spec).
func loadScene(spec string) (*scenes.Scene, error) {
	ctor, err := scenes.ByName(spec)
	if err != nil {
		return nil, err
	}
	return ctor()
}

// dialControl connects to the coordinator's control port, retrying so
// workers may start before the coordinator listens.
func dialControl(addr string) (net.Conn, error) {
	conn, err := mpi.DialRetry(addr, mpi.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("coord: dialing coordinator %s: %w", addr, err)
	}
	return conn, nil
}
