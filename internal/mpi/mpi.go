// Package mpi is the message-passing substrate standing in for MPI in this
// reproduction. The distributed Photon engine is written against Comm
// exactly as the paper's C code is written against MPI: ranks, point-to-
// point Send/Recv with tags and any-source receives, Barrier, AllToAll and
// AllReduce collectives.
//
// A message is a tag and a byte body, like an MPI byte buffer: callers
// encode their own typed payloads, and both transports move the same
// bytes. Over TCP every message is one length-prefixed frame (frame.go);
// in process the body slice itself is handed to the receiver. Either way
// the World records per-rank traffic (message counts and exact body
// bytes) so the 1997 platform performance models can replay a run's real
// communication pattern in virtual time.
package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// AnySource matches any sending rank in Recv.
const AnySource = -1

// AnyTag matches any message tag in Recv.
const AnyTag = -1

// ErrClosed is the cause a communicator reports after an orderly Close;
// a transport failure replaces it with the first real error observed.
var ErrClosed = errors.New("mpi: communicator closed")

// Communicator is one rank's handle on a message-passing world. Both
// transports satisfy it — *Comm (goroutine ranks in one process) and
// *TCPComm (one rank per OS process, full TCP mesh) — and the distributed
// engines are written against it, so the same engine body runs in-process
// or across machines. The collectives (AllToAll, AllReduceSum) are free
// functions over the interface.
//
// Semantics both transports must honor (pinned by the transport
// conformance suite): per-(sender,tag) FIFO delivery, AnySource/AnyTag
// wildcard receives, self-sends delivered through the same mailbox, and
// Recv returning ok=false — with Err reporting the cause — once the
// communicator is closed or the transport fails.
type Communicator interface {
	// Rank returns this communicator's rank in [0, Size).
	Rank() int
	// Size returns the world size.
	Size() int
	// Send transmits body to rank `to` with the given tag. Sends are
	// buffered and do not block on the receiver. The body is handed over:
	// the sender must not modify it afterwards. Bodies above MaxFrame are
	// refused.
	Send(to, tag int, body []byte) error
	// Recv blocks until a message matching (from, tag) arrives; ok is
	// false only if the communicator closed or failed while waiting.
	Recv(from, tag int) (body []byte, source int, ok bool)
	// Barrier blocks until every rank has entered it.
	Barrier() error
	// Err reports why the communicator stopped: nil while healthy,
	// ErrClosed after an orderly Close, or the first transport error.
	Err() error
	// TrafficStats snapshots the communication this rank can observe:
	// the full pair matrix for the in-process world, this rank's own row
	// (sends) and column (receives) for the TCP mesh.
	TrafficStats() Traffic
}

type envelope struct {
	from, tag int
	body      []byte
}

// mailbox is one rank's incoming queue with tag/source matching.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []envelope
	closed bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(e envelope) {
	m.mu.Lock()
	m.queue = append(m.queue, e)
	m.mu.Unlock()
	m.cond.Broadcast()
}

func (m *mailbox) get(from, tag int) (envelope, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for i, e := range m.queue {
			if (from == AnySource || e.from == from) && (tag == AnyTag || e.tag == tag) {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				return e, true
			}
		}
		if m.closed {
			return envelope{}, false
		}
		m.cond.Wait()
	}
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cond.Broadcast()
}

// Traffic is a snapshot of communication statistics.
type Traffic struct {
	Messages int64
	Bytes    int64
	// PerPair[i][j] counts messages from rank i to rank j.
	PerPair [][]int64
	// PerPairBytes[i][j] counts payload bytes from rank i to rank j — the
	// paper's communication-volume axis at pair granularity.
	PerPairBytes [][]int64
}

// SentByRank returns each rank's outgoing message and byte totals (row
// sums of the pair matrices).
func (t Traffic) SentByRank() (msgs, bytes []int64) {
	msgs = make([]int64, len(t.PerPair))
	bytes = make([]int64, len(t.PerPair))
	for i := range t.PerPair {
		for j := range t.PerPair[i] {
			msgs[i] += t.PerPair[i][j]
			bytes[i] += t.PerPairBytes[i][j]
		}
	}
	return msgs, bytes
}

// RecvByRank returns each rank's incoming message and byte totals (column
// sums of the pair matrices).
func (t Traffic) RecvByRank() (msgs, bytes []int64) {
	msgs = make([]int64, len(t.PerPair))
	bytes = make([]int64, len(t.PerPair))
	for i := range t.PerPair {
		for j := range t.PerPair[i] {
			msgs[j] += t.PerPair[i][j]
			bytes[j] += t.PerPairBytes[i][j]
		}
	}
	return msgs, bytes
}

// World is a communicator group of size ranks.
type World struct {
	size      int
	mailboxes []*mailbox

	statsMu      sync.Mutex
	messages     int64
	bytes        int64
	perPair      [][]int64
	perPairBytes [][]int64

	closeMu sync.Mutex
	closed  bool
}

// NewWorld creates a communicator world with the given number of ranks.
func NewWorld(size int) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpi: world size must be positive, got %d", size)
	}
	w := &World{size: size, mailboxes: make([]*mailbox, size)}
	for i := range w.mailboxes {
		w.mailboxes[i] = newMailbox()
	}
	w.perPair = make([][]int64, size)
	w.perPairBytes = make([][]int64, size)
	for i := range w.perPair {
		w.perPair[i] = make([]int64, size)
		w.perPairBytes[i] = make([]int64, size)
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Comm returns the communicator handle for one rank.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", rank, w.size))
	}
	return &Comm{world: w, rank: rank}
}

// TrafficStats returns a snapshot of the accumulated communication counts.
func (w *World) TrafficStats() Traffic {
	w.statsMu.Lock()
	defer w.statsMu.Unlock()
	pp := make([][]int64, w.size)
	ppb := make([][]int64, w.size)
	for i := range pp {
		pp[i] = append([]int64(nil), w.perPair[i]...)
		ppb[i] = append([]int64(nil), w.perPairBytes[i]...)
	}
	return Traffic{Messages: w.messages, Bytes: w.bytes, PerPair: pp, PerPairBytes: ppb}
}

// Close shuts every mailbox down, releasing blocked receivers with ok=false.
func (w *World) Close() {
	w.closeMu.Lock()
	w.closed = true
	w.closeMu.Unlock()
	for _, m := range w.mailboxes {
		m.close()
	}
}

// Comm is one rank's communicator.
type Comm struct {
	world *World
	rank  int
}

// Rank returns this communicator's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Send delivers body to rank `to` with the given tag. Sends never block
// (buffered, like MPI_Isend with guaranteed buffering — the paper notes the
// SP-2 enforces exactly this). The receiver gets the same slice.
func (c *Comm) Send(to, tag int, body []byte) error {
	if err := checkSend(to, c.world.size, body); err != nil {
		return err
	}
	b := len(body)
	c.world.mailboxes[to].put(envelope{from: c.rank, tag: tag, body: body})
	c.world.statsMu.Lock()
	c.world.messages++
	c.world.bytes += int64(b)
	c.world.perPair[c.rank][to]++
	c.world.perPairBytes[c.rank][to] += int64(b)
	c.world.statsMu.Unlock()
	return nil
}

// Err reports nil while the world is open and ErrClosed after Close; the
// in-process transport has no other failure mode.
func (c *Comm) Err() error {
	c.world.closeMu.Lock()
	defer c.world.closeMu.Unlock()
	if c.world.closed {
		return ErrClosed
	}
	return nil
}

// TrafficStats returns the whole world's traffic snapshot: in-process
// ranks share one accounting ledger.
func (c *Comm) TrafficStats() Traffic { return c.world.TrafficStats() }

// Recv blocks until a message matching (from, tag) arrives and returns its
// body and source. Use AnySource/AnyTag as wildcards. ok is false only
// if the world was closed while waiting.
func (c *Comm) Recv(from, tag int) (body []byte, source int, ok bool) {
	e, ok := c.world.mailboxes[c.rank].get(from, tag)
	if !ok {
		return nil, 0, false
	}
	return e.body, e.from, true
}

// checkSend validates a send identically on both transports.
func checkSend(to, size int, body []byte) error {
	if to < 0 || to >= size {
		return fmt.Errorf("mpi: send to invalid rank %d", to)
	}
	if len(body) > MaxFrame {
		return fmt.Errorf("mpi: %d-byte message exceeds the %d-byte frame cap", len(body), MaxFrame)
	}
	return nil
}

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() error { return barrier(c) }

// barrier is both transports' Barrier: a linear gather of empty messages
// to rank 0, then a broadcast (tag -2 is reserved). Being messages, it
// fails like any Recv when the communicator closes.
func barrier(c Communicator) error {
	const barrierTag = -2
	if c.Rank() == 0 {
		for i := 1; i < c.Size(); i++ {
			if _, _, ok := c.Recv(AnySource, barrierTag); !ok {
				return closedErr(c, "Barrier")
			}
		}
		for i := 1; i < c.Size(); i++ {
			if err := c.Send(i, barrierTag, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.Send(0, barrierTag, nil); err != nil {
		return err
	}
	if _, _, ok := c.Recv(0, barrierTag); !ok {
		return closedErr(c, "Barrier")
	}
	return nil
}

// AllToAll sends out[i] to rank i and returns in[i] = the body received
// from rank i (in[self] = out[self] without copying). This is the exchange
// at the end of each photon batch (Figure 5.3).
//
// Receives are posted per source, not AnySource: mailboxes are FIFO per
// (sender, tag), so when a fast rank races one whole exchange ahead and its
// next-round message is already queued, each round still consumes exactly
// one message per peer in order. An AnySource loop could swallow two rounds
// of one peer and none of another.
func AllToAll(c Communicator, tag int, out [][]byte) ([][]byte, error) {
	me := c.Rank()
	if len(out) != c.Size() {
		return nil, fmt.Errorf("mpi: AllToAll needs %d slices, got %d", c.Size(), len(out))
	}
	for to := 0; to < c.Size(); to++ {
		if to == me {
			continue
		}
		if err := c.Send(to, tag, out[to]); err != nil {
			return nil, err
		}
	}
	in := make([][]byte, c.Size())
	in[me] = out[me]
	for src := 0; src < c.Size(); src++ {
		if src == me {
			continue
		}
		p, _, ok := c.Recv(src, tag)
		if !ok {
			return nil, closedErr(c, "AllToAll")
		}
		in[src] = p
	}
	return in, nil
}

// closedErr builds the error for a collective interrupted by communicator
// shutdown, naming the underlying transport cause when one is recorded.
func closedErr(c Communicator, during string) error {
	if err := c.Err(); err != nil {
		return fmt.Errorf("mpi: world closed during %s: %w", during, err)
	}
	return fmt.Errorf("mpi: world closed during %s", during)
}

// AllReduceSum sums one float64 across all ranks and returns the total to
// every rank (gather to rank 0, then broadcast). Each message is the
// value's 8 little-endian IEEE-754 bytes.
func AllReduceSum(c Communicator, tag int, v float64) (float64, error) {
	if c.Rank() == 0 {
		sum := v
		for i := 1; i < c.Size(); i++ {
			p, _, ok := c.Recv(AnySource, tag)
			if !ok {
				return 0, closedErr(c, "AllReduce")
			}
			x, err := float64Body(p)
			if err != nil {
				return 0, err
			}
			sum += x
		}
		for i := 1; i < c.Size(); i++ {
			if err := c.Send(i, tag+1, binary.LittleEndian.AppendUint64(nil, math.Float64bits(sum))); err != nil {
				return 0, err
			}
		}
		return sum, nil
	}
	if err := c.Send(0, tag, binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))); err != nil {
		return 0, err
	}
	p, _, ok := c.Recv(0, tag+1)
	if !ok {
		return 0, closedErr(c, "AllReduce")
	}
	return float64Body(p)
}

func float64Body(b []byte) (float64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("mpi: AllReduce body is %d bytes, want 8", len(b))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// Run spawns fn on every rank of a fresh world and waits for completion,
// returning the first error. This is the mpirun of the substrate.
func Run(size int, fn func(c *Comm) error) (*World, error) {
	w, err := NewWorld(size)
	if err != nil {
		return nil, err
	}
	errs := make(chan error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs <- fn(w.Comm(rank))
		}(r)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		if e != nil {
			w.Close()
			return w, e
		}
	}
	return w, nil
}
