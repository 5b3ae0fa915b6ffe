package mpi

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(0); err == nil {
		t.Error("zero-size world accepted")
	}
	if _, err := NewWorld(-1); err == nil {
		t.Error("negative-size world accepted")
	}
	w, err := NewWorld(4)
	if err != nil {
		t.Fatal(err)
	}
	if w.Size() != 4 {
		t.Fatalf("size = %d", w.Size())
	}
}

func TestPingPong(t *testing.T) {
	_, err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 7, []byte("ping"))
			p, src, ok := c.Recv(1, 8)
			if !ok || src != 1 || string(p) != "pong" {
				t.Errorf("rank 0 got %v from %d", p, src)
			}
		} else {
			p, src, ok := c.Recv(0, 7)
			if !ok || src != 0 || string(p) != "ping" {
				t.Errorf("rank 1 got %v from %d", p, src)
			}
			c.Send(0, 8, []byte("pong"))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatching(t *testing.T) {
	// A receive for tag B must not consume a pending tag-A message.
	_, err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []byte("first"))
			c.Send(1, 2, []byte("second"))
		} else {
			p, _, _ := c.Recv(0, 2)
			if string(p) != "second" {
				t.Errorf("tag 2 recv got %v", p)
			}
			p, _, _ = c.Recv(0, 1)
			if string(p) != "first" {
				t.Errorf("tag 1 recv got %v", p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySourceReceivesAll(t *testing.T) {
	const n = 8
	_, err := Run(n, func(c *Comm) error {
		if c.Rank() == 0 {
			seen := map[int]bool{}
			for i := 0; i < n-1; i++ {
				_, src, ok := c.Recv(AnySource, 5)
				if !ok {
					t.Error("recv failed")
					return nil
				}
				seen[src] = true
			}
			if len(seen) != n-1 {
				t.Errorf("saw %d distinct sources, want %d", len(seen), n-1)
			}
		} else {
			c.Send(0, 5, msg(c.Rank()))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPerPair(t *testing.T) {
	// Messages between a fixed pair with the same tag arrive in order.
	_, err := Run(2, func(c *Comm) error {
		const k = 1000
		if c.Rank() == 0 {
			for i := 0; i < k; i++ {
				c.Send(1, 0, msg(i))
			}
		} else {
			for i := 0; i < k; i++ {
				p, _, _ := c.Recv(0, 0)
				if val(p) != i {
					t.Errorf("out of order: got %v want %d", p, i)
					return nil
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const n = 6
	var before, after int64
	_, err := Run(n, func(c *Comm) error {
		atomic.AddInt64(&before, 1)
		c.Barrier()
		// After the barrier, every rank must have incremented before.
		if got := atomic.LoadInt64(&before); got != n {
			t.Errorf("rank %d passed barrier with before=%d", c.Rank(), got)
		}
		atomic.AddInt64(&after, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if after != n {
		t.Fatalf("after = %d", after)
	}
}

func TestBarrierReusable(t *testing.T) {
	var phase int64
	_, err := Run(4, func(c *Comm) error {
		for round := 0; round < 50; round++ {
			c.Barrier()
			if c.Rank() == 0 {
				atomic.AddInt64(&phase, 1)
			}
			c.Barrier()
			if got := atomic.LoadInt64(&phase); got != int64(round+1) {
				t.Errorf("round %d: phase = %d", round, got)
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllToAll(t *testing.T) {
	const n = 5
	_, err := Run(n, func(c *Comm) error {
		out := make([][]byte, n)
		for to := 0; to < n; to++ {
			out[to] = msg(c.Rank()*100 + to)
		}
		in, err := AllToAll(c, 3, out)
		if err != nil {
			return err
		}
		for from := 0; from < n; from++ {
			want := from*100 + c.Rank()
			if val(in[from]) != want {
				t.Errorf("rank %d: in[%d] = %d, want %d", c.Rank(), from, val(in[from]), want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllToAllEmptySlices(t *testing.T) {
	_, err := Run(3, func(c *Comm) error {
		out := make([][]byte, 3)
		in, err := AllToAll(c, 1, out)
		if err != nil {
			return err
		}
		for i, s := range in {
			if len(s) != 0 {
				t.Errorf("in[%d] = %v, want empty", i, s)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllToAllWrongLength(t *testing.T) {
	_, err := Run(2, func(c *Comm) error {
		_, err := AllToAll(c, 1, make([][]byte, 5))
		if err == nil {
			t.Error("wrong-length AllToAll accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceSum(t *testing.T) {
	const n = 7
	_, err := Run(n, func(c *Comm) error {
		got, err := AllReduceSum(c, 10, float64(c.Rank()+1))
		if err != nil {
			return err
		}
		want := float64(n * (n + 1) / 2)
		if got != want {
			t.Errorf("rank %d: sum = %v, want %v", c.Rank(), got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTrafficStats(t *testing.T) {
	w, err := Run(3, func(c *Comm) error {
		if c.Rank() != 0 {
			c.Send(0, 1, make([]byte, 24))
		} else {
			for i := 0; i < 2; i++ {
				c.Recv(AnySource, 1)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := w.TrafficStats()
	if tr.Messages != 2 {
		t.Errorf("messages = %d, want 2", tr.Messages)
	}
	if tr.Bytes != 48 {
		t.Errorf("bytes = %d, want 48", tr.Bytes)
	}
	if tr.PerPair[1][0] != 1 || tr.PerPair[2][0] != 1 {
		t.Errorf("per-pair = %v", tr.PerPair)
	}
	if tr.PerPairBytes[1][0] != 24 || tr.PerPairBytes[2][0] != 24 {
		t.Errorf("per-pair bytes = %v", tr.PerPairBytes)
	}
}

// TestTrafficByRank pins the per-rank sent/received derivations: row and
// column sums of the pair matrices, which the observability layer reports
// as the paper's per-rank communication volume.
func TestTrafficByRank(t *testing.T) {
	w, err := Run(3, func(c *Comm) error {
		// Rank 0 sends one message to each of ranks 1 and 2.
		if c.Rank() == 0 {
			c.Send(1, 7, make([]byte, 16))
			c.Send(2, 7, make([]byte, 24))
			return nil
		}
		c.Recv(0, 7)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := w.TrafficStats()
	sentMsgs, sentBytes := tr.SentByRank()
	recvMsgs, recvBytes := tr.RecvByRank()
	if sentMsgs[0] != 2 || sentMsgs[1] != 0 || sentMsgs[2] != 0 {
		t.Errorf("sent msgs by rank = %v, want [2 0 0]", sentMsgs)
	}
	if recvMsgs[0] != 0 || recvMsgs[1] != 1 || recvMsgs[2] != 1 {
		t.Errorf("recv msgs by rank = %v, want [0 1 1]", recvMsgs)
	}
	if sentBytes[0] != tr.Bytes {
		t.Errorf("rank 0 sent %d bytes, world total %d", sentBytes[0], tr.Bytes)
	}
	if recvBytes[1]+recvBytes[2] != tr.Bytes {
		t.Errorf("recv bytes %v do not sum to world total %d", recvBytes, tr.Bytes)
	}
	// Conservation: everything sent is received.
	if sb, rb := sum(sentBytes), sum(recvBytes); sb != rb {
		t.Errorf("sent %d bytes, received %d", sb, rb)
	}
}

func sum(xs []int64) (s int64) {
	for _, x := range xs {
		s += x
	}
	return s
}

func TestCloseReleasesBlockedReceivers(t *testing.T) {
	w, err := NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan bool)
	go func() {
		_, _, ok := w.Comm(0).Recv(AnySource, AnyTag)
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	w.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("closed recv returned ok")
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

func TestConcurrentSendsNoLoss(t *testing.T) {
	// Many senders to one receiver; all messages must arrive.
	const senders, per = 8, 500
	var received int64
	_, err := Run(senders+1, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < senders*per; i++ {
				if _, _, ok := c.Recv(AnySource, 0); ok {
					atomic.AddInt64(&received, 1)
				}
			}
		} else {
			for i := 0; i < per; i++ {
				c.Send(0, 0, msg(i))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if received != senders*per {
		t.Fatalf("received %d, want %d", received, senders*per)
	}
}

func TestRunPropagatesError(t *testing.T) {
	_, err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			return errFake
		}
		return nil
	})
	if err != errFake {
		t.Fatalf("err = %v", err)
	}
}

var errFake = &fakeErr{}

type fakeErr struct{}

func (*fakeErr) Error() string { return "fake" }

func TestCommRankPanicsOutOfRange(t *testing.T) {
	w, _ := NewWorld(2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for invalid rank")
		}
	}()
	w.Comm(5)
}
