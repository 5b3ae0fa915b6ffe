package mpi

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"
)

// msg encodes an int as a message body; val decodes one (-1 for a body
// of the wrong length).
func msg(v int) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(v)) }

func val(b []byte) int {
	if len(b) != 8 {
		return -1
	}
	return int(binary.LittleEndian.Uint64(b))
}

// Transport conformance suite: every semantic test below runs against both
// transports — the in-process World and the TCP mesh — through the one
// Communicator interface, so the two can never drift apart on delivery
// order, wildcard matching, barrier behavior, close semantics, or traffic
// accounting. The distributed engines assume these semantics; this suite
// is what makes "runs in-process" equal "runs across processes".

// commWorld is one spun-up world of either transport plus its teardown.
type commWorld struct {
	comms []Communicator
	close func()
}

// transports enumerates the conformance subjects.
func transports(t *testing.T) map[string]func(size int) commWorld {
	t.Helper()
	return map[string]func(size int) commWorld{
		"world": func(size int) commWorld {
			w, err := NewWorld(size)
			if err != nil {
				t.Fatal(err)
			}
			cs := make([]Communicator, size)
			for r := range cs {
				cs[r] = w.Comm(r)
			}
			return commWorld{comms: cs, close: w.Close}
		},
		"tcp": func(size int) commWorld {
			tc := tcpWorld(t, size)
			cs := make([]Communicator, size)
			for r := range cs {
				cs[r] = tc[r]
			}
			return commWorld{comms: cs, close: func() {
				for _, c := range tc {
					c.Close()
				}
			}}
		},
	}
}

// eachTransport runs fn once per transport as a subtest.
func eachTransport(t *testing.T, size int, fn func(t *testing.T, w commWorld)) {
	for name, mk := range transports(t) {
		t.Run(name, func(t *testing.T) {
			w := mk(size)
			defer w.close()
			fn(t, w)
		})
	}
}

func TestConformanceFIFOPerPair(t *testing.T) {
	// Two senders interleave into one receiver on two tags; per
	// (sender, tag) order must survive, across pairs order is free.
	eachTransport(t, 3, func(t *testing.T, w commWorld) {
		const k = 200
		var wg sync.WaitGroup
		for _, src := range []int{1, 2} {
			wg.Add(1)
			go func(src int) {
				defer wg.Done()
				for i := 0; i < k; i++ {
					if err := w.comms[src].Send(0, 5, msg(src*10000+i)); err != nil {
						t.Error(err)
						return
					}
				}
			}(src)
		}
		next := map[int]int{1: 0, 2: 0}
		for i := 0; i < 2*k; i++ {
			p, src, ok := w.comms[0].Recv(AnySource, 5)
			if !ok {
				t.Fatal("recv failed")
			}
			if want := src*10000 + next[src]; val(p) != want {
				t.Fatalf("from %d got %v, want %d", src, p, want)
			}
			next[src]++
		}
		wg.Wait()
	})
}

func TestConformanceAnySourceAnyTag(t *testing.T) {
	eachTransport(t, 4, func(t *testing.T, w commWorld) {
		for src := 1; src < 4; src++ {
			if err := w.comms[src].Send(0, src, msg(src)); err != nil {
				t.Fatal(err)
			}
		}
		// Tag-selective receive out of arrival order, then wildcards.
		p, src, ok := w.comms[0].Recv(AnySource, 3)
		if !ok || src != 3 || val(p) != 3 {
			t.Fatalf("tag-3 recv: %v from %d", p, src)
		}
		seen := map[int]bool{}
		for i := 0; i < 2; i++ {
			p, src, ok := w.comms[0].Recv(AnySource, AnyTag)
			if !ok || val(p) != src {
				t.Fatalf("wildcard recv: %v from %d", p, src)
			}
			seen[src] = true
		}
		if !seen[1] || !seen[2] {
			t.Fatalf("missing sources: %v", seen)
		}
	})
}

func TestConformanceSelfSend(t *testing.T) {
	eachTransport(t, 2, func(t *testing.T, w commWorld) {
		if err := w.comms[1].Send(1, 9, msg(42)); err != nil {
			t.Fatal(err)
		}
		p, src, ok := w.comms[1].Recv(1, 9)
		if !ok || src != 1 || val(p) != 42 {
			t.Fatalf("self-send: %v from %d ok=%v", p, src, ok)
		}
	})
}

func TestConformanceBarrierUnderSendLoad(t *testing.T) {
	// Barriers must stay aligned while unrelated point-to-point traffic
	// is in flight: tag separation, not quiescence, is the contract.
	eachTransport(t, 4, func(t *testing.T, w commWorld) {
		const rounds = 20
		var phase int64
		var mu sync.Mutex
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				c := w.comms[rank]
				for round := 0; round < rounds; round++ {
					// Concurrent load: a ring message per round.
					if err := c.Send((rank+1)%4, 77, msg(round)); err != nil {
						t.Error(err)
						return
					}
					if err := c.Barrier(); err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					phase++
					mu.Unlock()
					if err := c.Barrier(); err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					p := phase
					mu.Unlock()
					if int(p) != (round+1)*4 {
						t.Errorf("rank %d round %d: phase %d", rank, round, p)
						return
					}
					if p, _, ok := c.Recv((rank+3)%4, 77); !ok || val(p) != round {
						t.Errorf("rank %d round %d: ring got %v", rank, round, p)
						return
					}
				}
			}(r)
		}
		wg.Wait()
	})
}

func TestConformanceCloseUnblocksRecv(t *testing.T) {
	eachTransport(t, 2, func(t *testing.T, w commWorld) {
		unblocked := make(chan bool, 1)
		go func() {
			_, _, ok := w.comms[1].Recv(0, 1)
			unblocked <- ok
		}()
		time.Sleep(20 * time.Millisecond) // let the Recv block
		w.close()
		select {
		case ok := <-unblocked:
			if ok {
				t.Fatal("Recv returned ok=true after close")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Recv still blocked after close")
		}
		if err := w.comms[1].Err(); err == nil {
			t.Fatal("Err() nil after close")
		}
	})
}

func TestConformanceTrafficAccounting(t *testing.T) {
	// A fixed exchange must yield identical send rows and receive columns
	// on both transports (each rank's own row/column — all a TCP rank can
	// observe; the in-process world just sees everything at once), and
	// every byte count is the exact sum of the bodies sent.
	eachTransport(t, 3, func(t *testing.T, w commWorld) {
		sends := []struct {
			from, to int
			body     string
		}{{0, 1, "ab"}, {0, 1, "cde"}, {1, 2, "fghi"}, {2, 2, "jklmnop"}, {1, 2, ""}}
		for _, s := range sends {
			if err := w.comms[s.from].Send(s.to, 4, []byte(s.body)); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range []struct{ rank, n int }{{1, 2}, {2, 3}} {
			for i := 0; i < r.n; i++ {
				if _, _, ok := w.comms[r.rank].Recv(AnySource, 4); !ok {
					t.Fatal("recv failed")
				}
			}
		}
		wantMsgs := [][]int64{{0, 2, 0}, {0, 0, 2}, {0, 0, 1}}
		wantBytes := [][]int64{{0, 5, 0}, {0, 0, 4}, {0, 0, 7}}
		for rank := range wantMsgs {
			tr := w.comms[rank].TrafficStats()
			// Rows, from each sender's own snapshot.
			for to := range wantMsgs[rank] {
				if tr.PerPair[rank][to] != wantMsgs[rank][to] || tr.PerPairBytes[rank][to] != wantBytes[rank][to] {
					t.Errorf("rank %d sent %d msgs / %d B to %d, want %d / %d", rank,
						tr.PerPair[rank][to], tr.PerPairBytes[rank][to], to, wantMsgs[rank][to], wantBytes[rank][to])
				}
			}
			// Columns, from each receiver's own snapshot.
			for from := range wantMsgs {
				if tr.PerPair[from][rank] != wantMsgs[from][rank] || tr.PerPairBytes[from][rank] != wantBytes[from][rank] {
					t.Errorf("rank %d received %d msgs / %d B from %d, want %d / %d", rank,
						tr.PerPair[from][rank], tr.PerPairBytes[from][rank], from, wantMsgs[from][rank], wantBytes[from][rank])
				}
			}
		}
	})
}

func TestConformanceCollectives(t *testing.T) {
	// AllToAll and AllReduceSum over the interface, both transports.
	eachTransport(t, 3, func(t *testing.T, w commWorld) {
		results := make([][][]byte, 3)
		sums := make([]float64, 3)
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				c := w.comms[rank]
				out := make([][]byte, 3)
				for to := range out {
					out[to] = msg(rank*10 + to)
				}
				in, err := AllToAll(c, 30, out)
				if err != nil {
					t.Error(err)
					return
				}
				results[rank] = in
				sum, err := AllReduceSum(c, 40, float64(rank+1))
				if err != nil {
					t.Error(err)
					return
				}
				sums[rank] = sum
			}(r)
		}
		wg.Wait()
		for rank, in := range results {
			for src, got := range in {
				if want := src*10 + rank; val(got) != want {
					t.Errorf("rank %d from %d: %d, want %d", rank, src, val(got), want)
				}
			}
		}
		for rank, s := range sums {
			if s != 6 {
				t.Errorf("rank %d AllReduceSum = %v, want 6", rank, s)
			}
		}
	})
}

// ensure both concrete types satisfy the interface.
var (
	_ Communicator = (*Comm)(nil)
	_ Communicator = (*TCPComm)(nil)
)
