package server

import (
	"bytes"
	"context"
	"encoding/json"
	"image/png"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCacheThrashOneSimulationPerKey is the satellite bugfix test: with a
// one-slot cache and two scenes filling concurrently, the LRU must NOT
// evict the in-flight entries — every request for a key shares the one
// fill, so each scene simulates exactly once no matter how hard the cache
// thrashes. (Before the pin, inserting the second key evicted the first
// mid-fill, and the next request for it started a second simulation.)
func TestCacheThrashOneSimulationPerKey(t *testing.T) {
	// MaxConcurrentRenders is generous so every thrash request reaches the
	// cache while the fills are still parked on the gate, rather than
	// waiting in the admission queue.
	s, ts, _ := newTestServer(t, Config{CacheSize: 1, SimPhotons: 500, MaxConcurrentRenders: 32})
	var fills sync.Map // key → *atomic.Int64
	var started atomic.Int64
	gate := make(chan struct{})
	s.fillHook = func(key string) {
		c, _ := fills.LoadOrStore(key, new(atomic.Int64))
		c.(*atomic.Int64).Add(1)
		started.Add(1)
		<-gate
	}

	const perKey = 4
	urls := []string{
		ts.URL + "/render?scene=quickstart&w=16&h=16",
		ts.URL + "/render?scene=cornell-box&w=16&h=16",
	}
	var wg sync.WaitGroup
	codes := make([]atomic.Int64, len(urls))
	launch := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(urls[i])
			if err != nil {
				return
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				codes[i].Add(1)
			}
		}()
	}
	// First request per key starts its fill and parks on the gate; the
	// second key's insert overflows the one-slot cache while both entries
	// are mid-fill.
	launch(0)
	waitFor(t, "first fill to start", func() bool { return started.Load() == 1 })
	launch(1)
	waitFor(t, "second fill to start", func() bool { return started.Load() == 2 })
	// Thrash: more requests for both keys while the fills are in flight.
	for i := 0; i < perKey-1; i++ {
		launch(0)
		launch(1)
	}
	// Every request must have passed its cache lookup (and therefore hold
	// its entry pointer) before the fills are released; a request arriving
	// after release could legitimately re-simulate an already-evicted key.
	waitFor(t, "all lookups to attach", func() bool {
		return s.metrics.CacheHits.Value()+s.metrics.CacheMisses.Value() == 2*perKey
	})
	close(gate)
	wg.Wait()

	for i := range urls {
		if got := codes[i].Load(); got != perKey {
			t.Errorf("url %d: %d/%d requests succeeded", i, got, perKey)
		}
	}
	fills.Range(func(key, c any) bool {
		if n := c.(*atomic.Int64).Load(); n != 1 {
			t.Errorf("key %v simulated %d times, want exactly 1", key, n)
		}
		return true
	})
}

// TestPprofMethodGuardGating is the satellite bugfix test: the POST
// exemption for /debug/pprof/ must exist only when the handlers are
// actually mounted. With EnablePprof off a POST to a pprof path is an
// ordinary write to a read-only server: 405, not a 404 that leaked past
// the method guard.
func TestPprofMethodGuardGating(t *testing.T) {
	_, off, _ := newTestServer(t, Config{})
	resp, err := http.Post(off.URL+"/debug/pprof/symbol", "text/plain", strings.NewReader("main"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST pprof with EnablePprof=false = %d, want 405", resp.StatusCode)
	}

	_, on, _ := newTestServer(t, Config{EnablePprof: true})
	resp, err = http.Post(on.URL+"/debug/pprof/symbol", "text/plain", strings.NewReader("main"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("POST pprof with EnablePprof=true = %d, want 200", resp.StatusCode)
	}
}

// TestHeadRenderShortCircuits is the satellite bugfix test: HEAD must
// resolve the solution and report headers without rendering or encoding
// anything — no body, no timing header, and no tick of the render
// telemetry.
func TestHeadRenderShortCircuits(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	// HEAD on a cold cache fills it (that is the documented semantics:
	// HEAD resolves the solution exactly as GET would).
	resp, err := http.Head(ts.URL + "/render?answer=q.pbf&w=64&h=64")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/png" {
		t.Errorf("HEAD Content-Type = %q, want image/png", ct)
	}
	if got := resp.Header.Get("X-Cache"); got != "MISS" {
		t.Errorf("cold HEAD X-Cache = %q, want MISS", got)
	}
	if resp.Header.Get("X-Photons") == "" {
		t.Error("HEAD missing X-Photons")
	}
	if got := resp.Header.Get("X-Render-Ms"); got != "" {
		t.Errorf("HEAD carries X-Render-Ms %q; no render happened", got)
	}
	if got := resp.Header.Get("Content-Length"); got != "" && got != "0" {
		t.Errorf("HEAD Content-Length = %q; no image was encoded", got)
	}
	if r := s.metrics.Renders.Value(); r != 0 {
		t.Errorf("HEAD incremented renders to %d", r)
	}
	if n := s.metrics.RenderSeconds.Count(); n != 0 {
		t.Errorf("HEAD observed %d render durations", n)
	}
	// The fill HEAD triggered is shared: the next GET is a cache hit.
	resp2, _ := get(t, ts.URL+"/render?answer=q.pbf&w=64&h=64")
	if got := resp2.Header.Get("X-Cache"); got != "HIT" {
		t.Errorf("GET after HEAD X-Cache = %q, want HIT", got)
	}
}

// TestWriteJSONSurfacesEncodeErrors is the satellite bugfix test: an
// unencodable value must produce a 500, not a silently truncated 200.
func TestWriteJSONSurfacesEncodeErrors(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, map[string]any{"bad": make(chan int)})
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("writeJSON(chan) = %d, want 500", rec.Code)
	}
	rec = httptest.NewRecorder()
	writeJSON(rec, map[string]int{"ok": 1})
	if rec.Code != http.StatusOK || !json.Valid(rec.Body.Bytes()) {
		t.Errorf("writeJSON(ok) = %d, body %q", rec.Code, rec.Body.String())
	}
}

// TestQualityProbe: quality=probe serves a valid PNG from the baked grid,
// labels it X-Quality: probe, and rejects unknown quality values; the
// default stays full.
func TestQualityProbe(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, body := get(t, ts.URL+"/render?answer=q.pbf&w=48&h=36&quality=probe")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quality=probe = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Quality"); got != "probe" {
		t.Errorf("X-Quality = %q, want probe", got)
	}
	img, err := png.Decode(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("probe response is not a PNG: %v", err)
	}
	if b := img.Bounds(); b.Dx() != 48 || b.Dy() != 36 {
		t.Errorf("probe frame is %dx%d, want 48x36", b.Dx(), b.Dy())
	}

	resp, _ = get(t, ts.URL+"/render?answer=q.pbf&w=48&h=36")
	if got := resp.Header.Get("X-Quality"); got != "full" {
		t.Errorf("default X-Quality = %q, want full", got)
	}
	resp, _ = get(t, ts.URL+"/render?answer=q.pbf&w=48&h=36&quality=draft")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("quality=draft = %d, want 400", resp.StatusCode)
	}
}

// TestHostileRenderParams: a non-finite or negative exposure, or a
// non-finite camera value, is a 400 at both qualities. ServeHTTP is called
// directly, so a panic fails the test instead of being recovered by
// net/http (a NaN or negative exposure used to index the probe path's
// tone-map table out of range; the full path rendered garbage).
func TestHostileRenderParams(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	hostile := []string{
		"exposure=NaN", "exposure=-1", "exposure=Inf", "exposure=-Inf",
		"fov=NaN", "fov=Inf", "eye=NaN,1,1", "eye=1,Inf,1", "lookat=1,1,NaN",
		"up=NaN,0,1", "up=0,0,-Inf",
	}
	do := func(query string) int {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/render?answer=q.pbf&w=16&h=12&"+query, nil))
		return rec.Code
	}
	for _, quality := range []string{"full", "probe"} {
		for _, h := range hostile {
			if code := do("quality=" + quality + "&" + h); code != http.StatusBadRequest {
				t.Errorf("quality=%s %s = %d, want 400", quality, h, code)
			}
		}
		if code := do("quality=" + quality + "&exposure=0.5"); code != http.StatusOK {
			t.Errorf("quality=%s exposure=0.5 = %d, want 200", quality, code)
		}
	}
}

// TestAdmitSheds drives the admission gate directly, with the slot held,
// so both shed causes are deterministic: a full queue sheds immediately,
// a queued request sheds when its deadline passes.
func TestAdmitSheds(t *testing.T) {
	s := New(Config{MaxConcurrentRenders: 1, MaxQueueDepth: 1, QueueTimeout: 30 * time.Millisecond})
	release, status := s.admit(context.Background())
	if release == nil {
		t.Fatalf("first admit shed with %d", status)
	}

	// Occupy the single queue slot; it will shed by deadline.
	queuedDone := make(chan int, 1)
	go func() {
		rel, st := s.admit(context.Background())
		if rel != nil {
			rel()
		}
		queuedDone <- st
	}()
	waitFor(t, "request to queue", func() bool { return s.queued.Load() == 1 })

	// Queue full: the next admit sheds immediately.
	start := time.Now()
	rel3, st3 := s.admit(context.Background())
	if rel3 != nil || st3 != http.StatusTooManyRequests {
		t.Errorf("over-queue admit = (%v, %d), want shed 429", rel3 != nil, st3)
	}
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Errorf("queue-full shed took %v, want immediate", d)
	}

	// The queued request sheds once its deadline passes.
	if st := <-queuedDone; st != http.StatusTooManyRequests {
		t.Errorf("queued admit = %d, want 429 after deadline", st)
	}
	if got := s.metrics.Shed.Value(); got != 2 {
		t.Errorf("shed counter = %d, want 2", got)
	}

	// Releasing the slot restores admission.
	release()
	rel4, _ := s.admit(context.Background())
	if rel4 == nil {
		t.Error("admit after release still shed")
	} else {
		rel4()
	}
}

// TestOverloadShedsEndToEnd: with one render slot held by a gated fill,
// excess HTTP requests receive 429 with Retry-After while the admitted
// request completes once the gate opens.
func TestOverloadShedsEndToEnd(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{
		MaxConcurrentRenders: 1,
		MaxQueueDepth:        1,
		QueueTimeout:         100 * time.Millisecond,
		SimPhotons:           500,
	})
	gate := make(chan struct{})
	var fillStarted atomic.Bool
	s.fillHook = func(string) {
		fillStarted.Store(true)
		<-gate
	}

	first := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/render?scene=quickstart&w=16&h=16")
		if err != nil {
			first <- 0
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	waitFor(t, "fill to hold the slot", func() bool { return fillStarted.Load() })

	// One request queues (and will time out); once it is queued, the next
	// is shed immediately.
	second := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/render?scene=quickstart&w=16&h=16")
		if err == nil {
			resp.Body.Close()
		}
		second <- resp
	}()
	waitFor(t, "request to queue", func() bool { return s.queued.Load() == 1 })

	resp, _ := get(t, ts.URL+"/render?scene=quickstart&w=16&h=16")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded request = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\" (100ms queue timeout rounds up)", ra)
	}
	if r2 := <-second; r2 == nil || r2.StatusCode != http.StatusTooManyRequests {
		t.Errorf("queued request did not shed with 429 after its deadline")
	}

	close(gate)
	if code := <-first; code != http.StatusOK {
		t.Errorf("admitted request = %d, want 200", code)
	}
	if shed := s.metrics.Shed.Value(); shed < 2 {
		t.Errorf("shed counter = %d, want >= 2", shed)
	}
	// The shed surface is on /metrics too.
	_, body := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(body), "photon_shed_total") {
		t.Error("/metrics missing photon_shed_total")
	}
}
