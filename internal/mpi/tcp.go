package mpi

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// TCPComm is a communicator whose ranks live in separate processes (or
// separate machines), connected by a full TCP mesh — the transport a real
// cluster deployment of the distributed engine swaps in for the in-process
// channel world. Each message is one frame (frame.go); the mailbox
// semantics (tags, any-source receives, per-pair FIFO) match Comm's,
// pinned by the shared transport conformance suite.
//
// Topology: rank i listens on addrs[i]; every rank dials every higher rank,
// so each pair shares exactly one connection. A frame carries no source
// rank: the connection it arrives on names the sender.
type TCPComm struct {
	rank, size int
	conns      []net.Conn   // conns[r] = connection to rank r (nil for self)
	sendMu     []sync.Mutex // sendMu[r] keeps frames to rank r whole
	box        *mailbox

	// statsMu guards the traffic ledger: this rank's outgoing row and
	// incoming column of the world's pair matrix. A TCP rank can only
	// observe its own endpoints; TrafficStats assembles them into the
	// sparse matrix SentByRank/RecvByRank expect.
	statsMu   sync.Mutex
	messages  int64
	bytes     int64
	sentTo    []int64
	sentBytes []int64
	recvFrom  []int64
	recvBytes []int64

	errMu    sync.Mutex
	firstErr error
}

// DialTimeout bounds how long NewTCPComm keeps redialing a peer that is
// not listening yet. Package-level so launchers with slow-starting worker
// fleets can widen it.
var DialTimeout = 15 * time.Second

// NewTCPComm creates rank `rank` of a size-len(addrs) world. It blocks
// until the full mesh is connected. All ranks must call it concurrently
// with the same address list.
func NewTCPComm(rank int, addrs []string) (*TCPComm, error) {
	if rank < 0 || rank >= len(addrs) {
		return nil, fmt.Errorf("mpi: rank %d out of range [0,%d)", rank, len(addrs))
	}
	ln, err := net.Listen("tcp", addrs[rank])
	if err != nil {
		return nil, fmt.Errorf("mpi: rank %d listen: %w", rank, err)
	}
	return NewTCPCommWithListener(rank, addrs, ln)
}

// NewTCPCommWithListener is NewTCPComm on a caller-provided listener for
// rank's own address — the coordinator/worker join flow listens first (to
// learn its ephemeral port and advertise it) and builds the mesh later.
// The listener is closed once the mesh is connected.
func NewTCPCommWithListener(rank int, addrs []string, ln net.Listener) (*TCPComm, error) {
	size := len(addrs)
	if rank < 0 || rank >= size {
		ln.Close()
		return nil, fmt.Errorf("mpi: rank %d out of range [0,%d)", rank, size)
	}
	c := &TCPComm{
		rank: rank, size: size,
		conns:     make([]net.Conn, size),
		sendMu:    make([]sync.Mutex, size),
		box:       newMailbox(),
		sentTo:    make([]int64, size),
		sentBytes: make([]int64, size),
		recvFrom:  make([]int64, size),
		recvBytes: make([]int64, size),
	}
	defer ln.Close()

	// Accept connections from all lower ranks; dial all higher ranks.
	// Handshake: the dialer sends one empty frame whose tag is its rank.
	// The rank is validated before use — only lower ranks dial us, each
	// exactly once — so a garbage or duplicate handshake fails the mesh
	// instead of panicking or silently replacing a live connection.
	var wg sync.WaitGroup
	errCh := make(chan error, size)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rank; i++ {
			conn, err := ln.Accept()
			if err != nil {
				errCh <- err
				return
			}
			peer, _, err := ReadFrame(conn)
			if err != nil {
				conn.Close()
				errCh <- fmt.Errorf("mpi: rank %d handshake: %w", rank, err)
				return
			}
			if peer < 0 || peer >= rank {
				conn.Close()
				errCh <- fmt.Errorf("mpi: rank %d rejecting handshake from out-of-range rank %d (dialers must be in [0,%d))", rank, peer, rank)
				return
			}
			if c.conns[peer] != nil {
				conn.Close()
				errCh <- fmt.Errorf("mpi: rank %d rejecting duplicate handshake from rank %d", rank, peer)
				return
			}
			c.conns[peer] = conn
		}
	}()
	for peer := rank + 1; peer < size; peer++ {
		conn, err := DialRetry(addrs[peer], DialTimeout)
		if err != nil {
			return nil, fmt.Errorf("mpi: rank %d dial %d: %w", rank, peer, err)
		}
		if err := WriteFrame(conn, rank, nil); err != nil {
			return nil, err
		}
		c.conns[peer] = conn
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}

	// Reader goroutine per peer feeds the shared mailbox. A read failure —
	// a dead peer, an over-cap length or a truncated frame — records the
	// first cause and closes the mailbox, releasing every blocked Recv;
	// Err() then reports why.
	for peer, conn := range c.conns {
		if conn == nil {
			continue
		}
		go func() {
			for {
				tag, body, err := ReadFrame(conn)
				if err != nil {
					c.fail(fmt.Errorf("mpi: rank %d reading from rank %d: %w", c.rank, peer, err))
					return
				}
				c.statsMu.Lock()
				c.recvFrom[peer]++
				c.recvBytes[peer] += int64(len(body))
				c.statsMu.Unlock()
				c.box.put(envelope{from: peer, tag: tag, body: body})
			}
		}()
	}
	return c, nil
}

// DialRetry dials addr with exponential backoff until it connects or the
// overall deadline expires — a peer that has not started listening yet
// costs sleeps, not a burned retry budget. The mesh dials its peers with
// it, and coord workers their coordinator.
func DialRetry(addr string, deadline time.Duration) (net.Conn, error) {
	var lastErr error
	backoff := time.Millisecond
	const maxBackoff = 250 * time.Millisecond
	limit := time.Now().Add(deadline)
	for {
		conn, err := net.DialTimeout("tcp", addr, deadline)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if time.Now().Add(backoff).After(limit) {
			return nil, fmt.Errorf("gave up after %v: %w", deadline, lastErr)
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// fail records the first cause of transport death and closes the mailbox,
// releasing every blocked Recv with ok=false.
func (c *TCPComm) fail(err error) {
	c.errMu.Lock()
	if c.firstErr == nil {
		c.firstErr = err
	}
	c.errMu.Unlock()
	c.box.close()
}

// Err reports why the communicator stopped: nil while healthy, ErrClosed
// after an orderly Close, or the first transport error observed.
func (c *TCPComm) Err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.firstErr
}

// Rank returns this communicator's rank.
func (c *TCPComm) Rank() int { return c.rank }

// Size returns the world size.
func (c *TCPComm) Size() int { return c.size }

// Send transmits body to rank `to` with the given tag; a self-send hands
// the slice to this rank's own mailbox.
func (c *TCPComm) Send(to, tag int, body []byte) error {
	if err := checkSend(to, c.size, body); err != nil {
		return err
	}
	if to == c.rank {
		c.box.put(envelope{from: c.rank, tag: tag, body: body})
		c.countSend(to, len(body))
		return nil
	}
	c.sendMu[to].Lock()
	err := WriteFrame(c.conns[to], tag, body)
	c.sendMu[to].Unlock()
	if err != nil {
		err = fmt.Errorf("mpi: rank %d send to rank %d: %w", c.rank, to, err)
		c.fail(err)
		return err
	}
	c.countSend(to, len(body))
	return nil
}

func (c *TCPComm) countSend(to, bytes int) {
	c.statsMu.Lock()
	c.messages++
	c.bytes += int64(bytes)
	c.sentTo[to]++
	c.sentBytes[to] += int64(bytes)
	c.statsMu.Unlock()
}

// Recv blocks until a message matching (from, tag) arrives.
func (c *TCPComm) Recv(from, tag int) (body []byte, source int, ok bool) {
	e, ok := c.box.get(from, tag)
	if !ok {
		return nil, 0, false
	}
	return e.body, e.from, true
}

// Barrier blocks until every rank reaches it.
func (c *TCPComm) Barrier() error { return barrier(c) }

// TrafficStats assembles this rank's observable traffic into the world
// pair matrix: row rank holds its sends, column rank its receives (the
// diagonal self-send cell comes from the send ledger). Rows and columns
// belonging to other ranks are zero — a multi-process driver gathers each
// rank's row to build the full matrix.
func (c *TCPComm) TrafficStats() Traffic {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	pp := make([][]int64, c.size)
	ppb := make([][]int64, c.size)
	for i := range pp {
		pp[i] = make([]int64, c.size)
		ppb[i] = make([]int64, c.size)
	}
	copy(pp[c.rank], c.sentTo)
	copy(ppb[c.rank], c.sentBytes)
	for from := 0; from < c.size; from++ {
		if from == c.rank {
			continue // diagonal already counted by the send ledger
		}
		pp[from][c.rank] = c.recvFrom[from]
		ppb[from][c.rank] = c.recvBytes[from]
	}
	return Traffic{Messages: c.messages, Bytes: c.bytes, PerPair: pp, PerPairBytes: ppb}
}

// Close shuts the mesh down.
func (c *TCPComm) Close() {
	c.errMu.Lock()
	if c.firstErr == nil {
		c.firstErr = ErrClosed
	}
	c.errMu.Unlock()
	for _, conn := range c.conns {
		if conn != nil {
			conn.Close()
		}
	}
	c.box.close()
}
