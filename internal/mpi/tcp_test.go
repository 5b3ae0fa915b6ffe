package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// freeAddrs reserves n loopback ports and returns their addresses.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// tcpWorld spins up a full mesh of TCPComms on loopback.
func tcpWorld(t *testing.T, size int) []*TCPComm {
	t.Helper()
	addrs := freeAddrs(t, size)
	comms := make([]*TCPComm, size)
	var wg sync.WaitGroup
	errs := make([]error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			comms[rank], errs[rank] = NewTCPComm(rank, addrs)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, c := range comms {
			if c != nil {
				c.Close()
			}
		}
	})
	return comms
}

func TestTCPPingPong(t *testing.T) {
	comms := tcpWorld(t, 2)
	done := make(chan error, 2)
	go func() {
		if err := comms[0].Send(1, 7, []byte("ping")); err != nil {
			done <- err
			return
		}
		p, src, ok := comms[0].Recv(1, 8)
		if !ok || src != 1 || string(p) != "pong" {
			done <- fmt.Errorf("rank 0 got %v from %d", p, src)
			return
		}
		done <- nil
	}()
	go func() {
		p, _, ok := comms[1].Recv(0, 7)
		if !ok || string(p) != "ping" {
			done <- fmt.Errorf("rank 1 got %v", p)
			return
		}
		done <- comms[1].Send(0, 8, []byte("pong"))
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestTCPManyToOne(t *testing.T) {
	const n = 4
	comms := tcpWorld(t, n)
	var wg sync.WaitGroup
	for r := 1; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := comms[rank].Send(0, 5, msg(rank*1000+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	seen := map[int]int{}
	for i := 0; i < (n-1)*100; i++ {
		p, src, ok := comms[0].Recv(AnySource, 5)
		if !ok {
			t.Fatal("recv failed")
		}
		if val(p)/1000 != src {
			t.Fatalf("payload %v does not match source %d", p, src)
		}
		seen[src]++
	}
	wg.Wait()
	for r := 1; r < n; r++ {
		if seen[r] != 100 {
			t.Fatalf("rank %d delivered %d/100", r, seen[r])
		}
	}
}

func TestTCPFIFOPerPair(t *testing.T) {
	comms := tcpWorld(t, 2)
	const k = 500
	go func() {
		for i := 0; i < k; i++ {
			comms[0].Send(1, 0, msg(i))
		}
	}()
	for i := 0; i < k; i++ {
		p, _, ok := comms[1].Recv(0, 0)
		if !ok || val(p) != i {
			t.Fatalf("out of order at %d: %v", i, p)
		}
	}
}

func TestTCPBarrier(t *testing.T) {
	const n = 4
	comms := tcpWorld(t, n)
	var phase int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				if err := comms[rank].Barrier(); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				phase++
				mu.Unlock()
				if err := comms[rank].Barrier(); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				p := phase
				mu.Unlock()
				if int(p) != (round+1)*n {
					t.Errorf("rank %d round %d: phase %d", rank, round, p)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

func TestTCPSelfSend(t *testing.T) {
	comms := tcpWorld(t, 2)
	if err := comms[0].Send(0, 9, []byte("loop")); err != nil {
		t.Fatal(err)
	}
	p, src, ok := comms[0].Recv(0, 9)
	if !ok || src != 0 || string(p) != "loop" {
		t.Fatalf("self-send got %v from %d", p, src)
	}
}

func TestTCPStats(t *testing.T) {
	comms := tcpWorld(t, 2)
	comms[0].Send(1, 1, []byte("xyz"))
	comms[1].Recv(0, 1)
	if tr := comms[0].TrafficStats(); tr.Messages != 1 || tr.Bytes != 3 {
		t.Fatalf("stats = %d msgs, %d bytes, want 1 and 3", tr.Messages, tr.Bytes)
	}
}

// TestDialRetryLateListener pins the backoff fix: a listener that starts
// 300ms after the dial begins must still be reached — the old retry loop
// burned its whole budget in microseconds of immediate redials.
func TestDialRetryLateListener(t *testing.T) {
	addr := freeAddrs(t, 1)[0]
	go func() {
		time.Sleep(300 * time.Millisecond)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return // port raced away; DialRetry will time out and fail the test
		}
		conn, err := ln.Accept()
		if err == nil {
			conn.Close()
		}
		ln.Close()
	}()
	start := time.Now()
	conn, err := DialRetry(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("DialRetry: %v", err)
	}
	conn.Close()
	if waited := time.Since(start); waited < 250*time.Millisecond {
		t.Fatalf("connected after %v — listener was not late; test is vacuous", waited)
	}
}

func TestDialRetryDeadline(t *testing.T) {
	addr := freeAddrs(t, 1)[0] // nothing ever listens here
	start := time.Now()
	if _, err := DialRetry(addr, 200*time.Millisecond); err == nil {
		t.Fatal("DialRetry succeeded with no listener")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("DialRetry overshot its deadline: %v", elapsed)
	}
}

// meshAccept drives one rank's NewTCPComm in the background so a test can
// hand-craft handshakes against its listener.
func meshAccept(t *testing.T, rank int, addrs []string) chan error {
	t.Helper()
	errCh := make(chan error, 1)
	go func() {
		c, err := NewTCPComm(rank, addrs)
		if c != nil {
			c.Close()
		}
		errCh <- err
	}()
	return errCh
}

func TestTCPHandshakeRejectsOutOfRangeRank(t *testing.T) {
	addrs := freeAddrs(t, 2)
	errCh := meshAccept(t, 1, addrs) // rank 1 accepts exactly one dialer: rank 0
	conn, err := DialRetry(addrs[1], 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, 7, nil); err != nil { // garbage rank
		t.Fatal(err)
	}
	if err := <-errCh; err == nil {
		t.Fatal("out-of-range handshake rank accepted")
	} else if !strings.Contains(err.Error(), "out-of-range") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestTCPHandshakeRejectsDuplicateRank(t *testing.T) {
	addrs := freeAddrs(t, 3)
	errCh := meshAccept(t, 2, addrs) // rank 2 accepts ranks 0 and 1
	for i := 0; i < 2; i++ {
		conn, err := DialRetry(addrs[2], 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := WriteFrame(conn, 0, nil); err != nil { // rank 0, twice
			t.Fatal(err)
		}
	}
	if err := <-errCh; err == nil {
		t.Fatal("duplicate handshake rank accepted")
	} else if !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestTCPHostileFrames pins the frame reader's defenses: after a valid
// handshake on a raw connection, a length prefix above the cap and a
// body cut short each fail the link — Err() names it — without a panic
// and without allocating what the header claims.
func TestTCPHostileFrames(t *testing.T) {
	for _, tc := range []struct {
		name   string
		length uint32
		body   int
		want   string
	}{
		{"over-cap length", MaxFrame + 1, 0, "exceeds"},
		{"truncated body", MaxFrame, 10, "unexpected EOF"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addrs := freeAddrs(t, 2)
			meshCh := make(chan *TCPComm, 1)
			go func() {
				c, err := NewTCPComm(1, addrs)
				if err != nil {
					t.Error(err)
				}
				meshCh <- c
			}()
			conn, err := DialRetry(addrs[1], 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := WriteFrame(conn, 0, nil); err != nil { // handshake as rank 0
				t.Fatal(err)
			}
			c := <-meshCh
			if c == nil {
				t.Fatal("mesh did not form")
			}
			defer c.Close()

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			hdr := binary.LittleEndian.AppendUint32(nil, tc.length)
			hdr = binary.LittleEndian.AppendUint32(hdr, 5)
			if _, err := conn.Write(append(hdr, make([]byte, tc.body)...)); err != nil {
				t.Fatal(err)
			}
			conn.Close()
			if _, _, ok := c.Recv(0, AnyTag); ok {
				t.Fatal("hostile frame delivered a message")
			}
			runtime.ReadMemStats(&after)
			err = c.Err()
			if err == nil || !strings.Contains(err.Error(), "reading from rank 0") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Err() = %v, want the rank-0 link named and %q", err, tc.want)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
				t.Fatalf("reader allocated %d bytes for a %d-byte frame", grew, len(hdr)+tc.body)
			}
		})
	}
}

// TestTCPFailureCauseSurfaces pins the silent-collapse fix: when a peer
// dies, blocked receives unblock with ok=false AND the cause is recorded —
// Err() is non-nil and Barrier's error names it instead of a bare
// "interrupted".
func TestTCPFailureCauseSurfaces(t *testing.T) {
	comms := tcpWorld(t, 3)
	recvDone := make(chan bool, 1)
	go func() {
		_, _, ok := comms[0].Recv(1, 99)
		recvDone <- ok
	}()
	time.Sleep(20 * time.Millisecond)
	// Rank 2 "dies": its sockets close, rank 0's reader sees EOF.
	comms[2].Close()
	select {
	case ok := <-recvDone:
		if ok {
			t.Fatal("Recv ok=true after peer death")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv still blocked after peer death")
	}
	err := comms[0].Err()
	if err == nil {
		t.Fatal("Err() nil after peer death")
	}
	if errors.Is(err, ErrClosed) {
		t.Fatalf("peer death misreported as orderly close: %v", err)
	}
	if !strings.Contains(err.Error(), "reading from rank 2") {
		t.Fatalf("cause does not name the dead peer: %v", err)
	}
	if berr := comms[0].Barrier(); berr == nil {
		t.Fatal("Barrier succeeded on a dead mesh")
	} else if !strings.Contains(berr.Error(), "reading from rank 2") {
		t.Fatalf("Barrier error dropped the cause: %v", berr)
	}
}

func TestTCPOrderlyCloseIsErrClosed(t *testing.T) {
	comms := tcpWorld(t, 2)
	comms[0].Close()
	if err := comms[0].Err(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Err() = %v, want ErrClosed", err)
	}
}

func TestTCPInvalidRank(t *testing.T) {
	if _, err := NewTCPComm(5, []string{"127.0.0.1:0"}); err == nil {
		t.Fatal("invalid rank accepted")
	}
	comms := tcpWorld(t, 2)
	if err := comms[0].Send(7, 0, []byte("x")); err == nil {
		t.Fatal("send to invalid rank accepted")
	}
}
