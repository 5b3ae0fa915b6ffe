package main

// The benchmark's own load driver. Open loop: requests are due on a fixed
// schedule whether or not earlier ones have completed, and each is timed
// from the moment it was DUE, not the moment it was sent — so the wait a
// stall imposes on later arrivals lands in their latency, and how late the
// generator itself ran is reported beside it. (internal/loadgen times from
// the send and is deliberately not reused.) Closed loop: the caller sends
// its next request only after the previous one completed, as a user
// opening scenes does, and a request is due the moment it is sent.

import (
	"hash/fnv"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request's outcome. Times are offsets from the phase start.
type sample struct {
	Shot   int // index into inputs.shots
	Due    time.Duration
	Sent   time.Duration
	Done   time.Duration
	Status int // 0 = transport error
	Hit    bool
	Hash   uint64 // FNV-1a of the body
	Span   int    // the request's span id in a traced run, else 0
}

// latency is what the user waited: completion minus due time.
func (s sample) latency() time.Duration { return s.Done - s.Due }

// ok reports a 2xx response.
func (s sample) ok() bool { return s.Status >= 200 && s.Status < 300 }

// bodies keeps the first response body seen for each shot, for the
// correctness check that runs after the timed window.
type bodies struct {
	mu    sync.Mutex
	first map[int][]byte
}

func (b *bodies) keep(shot int, body []byte) {
	b.mu.Lock()
	if _, seen := b.first[shot]; !seen {
		b.first[shot] = body
	}
	b.mu.Unlock()
}

func hashOf(body []byte) uint64 {
	h := fnv.New64a()
	h.Write(body)
	return h.Sum64()
}

// fetch sends one request for shots[si], due at offset due from begin, and
// records it. In a traced run the request is a span under parent and
// carries its span id to the handlers.
func (f *farm) fetch(tr *tracer, parent int, shots []shot, si int, keep *bodies, begin time.Time, due time.Duration) sample {
	s := sample{Shot: si, Due: due}
	target := f.entry + shots[si].path()
	id := tr.start("loadgen.request", parent)
	s.Span = id
	if id != 0 {
		target += "&" + spanParam + "=" + strconv.Itoa(id)
	}
	s.Sent = time.Since(begin)
	resp, err := f.client.Get(target)
	if err == nil {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil {
			s.Status = resp.StatusCode
			s.Hit = resp.Header.Get("X-Cache") == "HIT"
			s.Hash = hashOf(body)
			if s.ok() {
				keep.keep(si, body)
			}
		}
	}
	s.Done = time.Since(begin)
	tr.end(id)
	return s
}

// sleepSlack is how much earlier than due a connection wakes up; it yields
// its way through the rest. time.Sleep alone overshoots by about a
// millisecond on this class of host, a fifth of a probe frame's latency.
const sleepSlack = 2 * time.Millisecond

// openLoop issues order[i] (an index into shots) at i/rate seconds after
// the phase starts, over at most conns connections, and returns one sample
// per request in schedule order. Each connection takes the next unsent
// slot, waits until it is due, and sends it: a first-come queue in front of
// conns connections, which is what independent users behind a connection
// pool look like.
func (f *farm) openLoop(tr *tracer, parent int, shots []shot, order []int, rate float64, conns int, keep *bodies) []sample {
	out := make([]sample, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	begin := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(order) {
					return
				}
				due := time.Duration(float64(i) / rate * float64(time.Second))
				if wait := due - time.Since(begin) - sleepSlack; wait > 0 {
					time.Sleep(wait)
				}
				for time.Since(begin) < due {
					runtime.Gosched()
				}
				out[i] = f.fetch(tr, parent, shots, order[i], keep, begin, due)
			}
		}()
	}
	wg.Wait()
	return out
}

// get is a plain request outside any phase (warming a cache).
func (f *farm) get(path string) (int, error) {
	resp, err := f.client.Get(f.entry + path)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// summary is the latency digest of one phase, in milliseconds.
type summary struct {
	N     int     // 2xx samples
	P50   float64 // median latency from due time
	Tail  float64 // latency at the phase's tail percentile
	LateQ float64 // the percentile Late is: the highest the count supports
	Late  float64 // generator lateness, sent − due
}

// summarize digests a phase; tailQ is the percentile reported as its tail.
// Only 2xx samples have a latency: a failed request misses any limit and is
// counted by the check, not averaged in.
func summarize(samples []sample, tailQ float64) summary {
	var lat, late []float64
	var sum summary
	for _, s := range samples {
		late = append(late, float64(s.Sent-s.Due)/float64(time.Millisecond))
		if s.ok() {
			lat = append(lat, float64(s.latency())/float64(time.Millisecond))
		}
	}
	sum.N = len(lat)
	ls := sorted(lat)
	sum.P50 = nearestRank(ls, 0.50)
	sum.Tail = nearestRank(ls, tailQ)
	sum.LateQ = supportedTail(len(late))
	sum.Late = nearestRank(sorted(late), sum.LateQ)
	return sum
}

// statusOf words a failed sample.
func statusOf(s sample) string {
	if s.Status == 0 {
		return "transport error"
	}
	return strconv.Itoa(s.Status) + " " + http.StatusText(s.Status)
}
