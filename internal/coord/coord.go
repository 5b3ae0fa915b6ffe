package coord

import (
	"fmt"
	"log"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/mpi"
	"repro/internal/scenes"
)

// CoordOptions parameterizes RunCoordinator.
type CoordOptions struct {
	// MeshHost is the host the coordinator's per-attempt mesh listener
	// binds and advertises (default 127.0.0.1).
	MeshHost string
	// CheckpointPath, when set, persists every gathered checkpoint there
	// (atomically) so a restarted coordinator can resume via Resume.
	CheckpointPath string
	// Resume seeds the first attempt from a prior checkpoint (e.g. one
	// loaded with dist.LoadCheckpoint after a coordinator restart).
	Resume *dist.Checkpoint
	// HeartbeatTimeout declares a silent worker dead (default 10s; must
	// comfortably exceed the workers' 250ms heartbeat interval).
	HeartbeatTimeout time.Duration
	// MaxAttempts bounds how many times the job is (re)started after
	// failures before giving up (default 5).
	MaxAttempts int
	// Logf receives progress lines (default log.Printf).
	Logf func(format string, args ...any)
}

// worker is the coordinator's handle on one joined worker process.
type worker struct {
	id   int
	conn net.Conn

	mu       sync.Mutex
	lastSeen time.Time
}

func (w *worker) beat() {
	w.mu.Lock()
	w.lastSeen = time.Now()
	w.mu.Unlock()
}

func (w *worker) staleSince(timeout time.Duration) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return time.Since(w.lastSeen) > timeout
}

// event is anything the main loop must react to: a control message from
// a worker, or its connection dying.
type event struct {
	w   *worker
	msg *ctrlMsg // nil when err is set
	err error
}

// RunCoordinator runs a multi-process job: it serves the control port on
// ln, waits for Ranks-1 workers to join, executes rank 0 itself, and
// returns the assembled result. Failed attempts are retried from the
// last checkpoint once enough workers are available again.
func RunCoordinator(ln net.Listener, job JobSpec, opt CoordOptions) (*dist.Result, error) {
	if err := job.validate(); err != nil {
		return nil, err
	}
	if opt.MeshHost == "" {
		opt.MeshHost = "127.0.0.1"
	}
	if opt.HeartbeatTimeout <= 0 {
		opt.HeartbeatTimeout = 10 * time.Second
	}
	if opt.MaxAttempts <= 0 {
		opt.MaxAttempts = 5
	}
	logf := opt.Logf
	if logf == nil {
		logf = log.Printf
	}
	// Resolve the job once up front so a bad spec fails before any worker
	// is assigned; ranks re-derive all of this redundantly.
	scene, err := loadScene(job.Scene)
	if err != nil {
		return nil, err
	}
	cfg, err := job.distConfig()
	if err != nil {
		return nil, err
	}

	c := &coordinator{
		job: job, opt: opt, scene: scene, cfg: cfg, logf: logf,
		events:   make(chan event, 128),
		ready:    make(map[*worker]string),
		assigned: make(map[*worker]int),
		live:     make(map[*worker]bool),
		latest:   opt.Resume,
	}
	defer ln.Close()
	go c.acceptLoop(ln)
	return c.run()
}

type coordinator struct {
	job   JobSpec
	opt   CoordOptions
	scene *scenes.Scene
	cfg   dist.Config
	logf  func(string, ...any)

	events chan event

	// Main-loop state (no locking: touched only by run()).
	ready    map[*worker]string // idle workers and their advertised mesh addrs
	assigned map[*worker]int    // workers running the current attempt, by rank
	live     map[*worker]bool   // every registered worker, for shutdown

	// latest is the most recent checkpoint, shared with the rank-0
	// goroutine's sink.
	ckptMu sync.Mutex
	latest *dist.Checkpoint
}

// acceptLoop serves the control port: handshake each connection, reject
// version mismatches, and turn accepted workers into event streams.
func (c *coordinator) acceptLoop(ln net.Listener) {
	nextID := 0
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		id := nextID
		nextID++
		go c.serveConn(id, conn)
	}
}

func (c *coordinator) serveConn(id int, conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	hello, err := readMsg(conn)
	if err != nil || hello.Kind != kindHello {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	if hello.Version != WireVersion {
		c.logf("rejecting worker speaking wire version %d (this coordinator speaks %d)", hello.Version, WireVersion)
		writeMsg(conn, ctrlMsg{Kind: kindReject,
			Reason: fmt.Sprintf("wire version %d, coordinator speaks %d", hello.Version, WireVersion)})
		conn.Close()
		return
	}
	w := &worker{id: id, conn: conn}
	w.beat()
	for {
		m, err := readMsg(conn)
		if err != nil {
			conn.Close()
			c.events <- event{w: w, err: err}
			return
		}
		w.beat()
		if m.Kind == kindHeartbeat {
			continue
		}
		c.events <- event{w: w, msg: &m}
	}
}

// handle folds one event into the main-loop state. It returns true when
// the event means the current attempt cannot succeed: an assigned worker
// died or reported a failed rank.
func (c *coordinator) handle(ev event) (attemptDoomed bool) {
	w := ev.w
	if ev.err != nil {
		delete(c.ready, w)
		delete(c.live, w)
		if _, was := c.assigned[w]; was {
			delete(c.assigned, w)
			c.logf("worker %d lost mid-attempt: %v", w.id, ev.err)
			return true
		}
		return false
	}
	c.live[w] = true
	switch ev.msg.Kind {
	case kindReady:
		c.ready[w] = ev.msg.MeshAddr
	case kindDone:
		rank, was := c.assigned[w]
		delete(c.assigned, w)
		if ev.msg.Reason != "" && was {
			c.logf("rank %d on worker %d failed: %s", rank, w.id, ev.msg.Reason)
			return true
		}
	}
	return false
}

// dropStale closes the connection of every monitored worker that has
// gone silent past the heartbeat timeout; the reader then surfaces the
// death as an ordinary connection-lost event.
func (c *coordinator) dropStale() {
	for w := range c.live {
		if w.staleSince(c.opt.HeartbeatTimeout) {
			c.logf("worker %d missed heartbeats for %v, declaring it dead", w.id, c.opt.HeartbeatTimeout)
			w.conn.Close()
		}
	}
}

func (c *coordinator) checkpoint() *dist.Checkpoint {
	c.ckptMu.Lock()
	defer c.ckptMu.Unlock()
	return c.latest
}

func (c *coordinator) run() (*dist.Result, error) {
	need := c.job.Ranks - 1
	tick := time.NewTicker(c.opt.HeartbeatTimeout / 4)
	defer tick.Stop()

	var lastErr error
	for attempt := 0; attempt < c.opt.MaxAttempts; attempt++ {
		// Gather: wait for enough idle workers.
		if len(c.ready) < need {
			c.logf("attempt %d: waiting for %d workers (%d ready)", attempt, need, len(c.ready))
		}
		for len(c.ready) < need {
			select {
			case ev := <-c.events:
				c.handle(ev)
			case <-tick.C:
				c.dropStale()
			}
		}

		res, err := c.runAttempt(attempt, tick)
		if err == nil {
			c.shutdownWorkers()
			return res, nil
		}
		lastErr = err
		c.logf("attempt %d failed: %v", attempt, err)
	}
	c.shutdownWorkers()
	return nil, fmt.Errorf("coord: job failed after %d attempts: %w", c.opt.MaxAttempts, lastErr)
}

// runAttempt assigns ranks to ready workers, runs rank 0 in-process, and
// monitors heartbeats until the attempt produces a result or dies.
func (c *coordinator) runAttempt(attempt int, tick *time.Ticker) (*dist.Result, error) {
	need := c.job.Ranks - 1
	// Forget the previous attempt's assignments: a straggler's late Done
	// or death must not be mistaken for this attempt failing.
	c.assigned = make(map[*worker]int)

	// Deterministic selection: lowest join ids first.
	sel := make([]*worker, 0, len(c.ready))
	for w := range c.ready {
		sel = append(sel, w)
	}
	sort.Slice(sel, func(i, j int) bool { return sel[i].id < sel[j].id })
	sel = sel[:need]

	meshLn, err := net.Listen("tcp", net.JoinHostPort(c.opt.MeshHost, "0"))
	if err != nil {
		return nil, fmt.Errorf("coord: opening mesh listener: %w", err)
	}
	addrs := make([]string, c.job.Ranks)
	addrs[0] = meshLn.Addr().String()
	for i, w := range sel {
		addrs[i+1] = c.ready[w]
	}

	resume := c.checkpoint()
	var ckBytes []byte
	if resume != nil {
		c.logf("attempt %d: resuming %d ranks from round %d", attempt, c.job.Ranks, resume.Round)
		if ckBytes, err = resume.MarshalBinary(); err != nil {
			meshLn.Close()
			return nil, err
		}
	} else {
		c.logf("attempt %d: starting %d ranks from scratch", attempt, c.job.Ranks)
	}
	for i, w := range sel {
		m := ctrlMsg{Kind: kindAssign, Rank: i + 1, Addrs: addrs,
			Attempt: attempt, Job: c.job, Checkpoint: ckBytes}
		if err := writeMsg(w.conn, m); err != nil {
			// The worker died between Ready and Assign; its reader event
			// will clean it up. Abort before the mesh ever forms.
			meshLn.Close()
			return nil, fmt.Errorf("coord: assigning rank %d: %w", i+1, err)
		}
		delete(c.ready, w)
		c.assigned[w] = i + 1
	}

	// Rank 0 runs in its own goroutine so the main loop can keep watching
	// heartbeats; abort() unblocks it if a worker is declared dead while
	// rank 0 sits in a collective.
	type r0result struct {
		res *dist.Result
		err error
	}
	r0ch := make(chan r0result, 1)
	var commMu sync.Mutex
	var comm *mpi.TCPComm
	abort := func() {
		commMu.Lock()
		if comm != nil {
			comm.Close()
		}
		commMu.Unlock()
	}
	go func() {
		cm, err := mpi.NewTCPCommWithListener(0, addrs, meshLn)
		if err != nil {
			r0ch <- r0result{err: err}
			return
		}
		commMu.Lock()
		comm = cm
		commMu.Unlock()
		defer cm.Close()
		opts := dist.RankOptions{
			CheckpointEvery: c.job.CheckpointEvery,
			CheckpointSink:  c.saveCheckpoint,
			Resume:          resume,
		}
		res, err := c.job.runRank(cm, c.scene, c.cfg, opts)
		r0ch <- r0result{res: res, err: err}
	}()

	var res *dist.Result
	var attemptErr error
	done := false
	for !done {
		select {
		case ev := <-c.events:
			if c.handle(ev) && attemptErr == nil {
				attemptErr = fmt.Errorf("coord: a worker failed mid-attempt")
				abort()
			}
		case r := <-r0ch:
			res, attemptErr, done = r.res, r.err, true
		case <-tick.C:
			c.dropStale()
		}
	}
	if attemptErr != nil {
		// Give survivors their mesh collapse: they will report Done and
		// re-enter Ready during the next gather phase.
		return nil, attemptErr
	}

	// Success. Collect the assigned workers' Done reports (briefly) so a
	// straggler's Done is not mistaken for next job state; their absence
	// is harmless — rank 0 already holds the assembled answer.
	grace := time.After(5 * time.Second)
	for len(c.assigned) > 0 {
		select {
		case ev := <-c.events:
			c.handle(ev)
		case <-grace:
			return res, nil
		}
	}
	return res, nil
}

// saveCheckpoint is the rank-0 sink: it retains the snapshot for the
// next attempt and persists it when a path is configured.
func (c *coordinator) saveCheckpoint(ck *dist.Checkpoint) error {
	c.ckptMu.Lock()
	c.latest = ck
	c.ckptMu.Unlock()
	if c.opt.CheckpointPath == "" {
		return nil
	}
	return dist.SaveCheckpoint(c.opt.CheckpointPath, ck)
}

// shutdownWorkers tells every live worker the job is over.
func (c *coordinator) shutdownWorkers() {
	for w := range c.live {
		writeMsg(w.conn, ctrlMsg{Kind: kindShutdown})
		w.conn.Close()
	}
}
