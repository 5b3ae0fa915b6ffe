package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image/png"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/answer"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenegen"
	"repro/internal/scenes"
)

// writeAnswer simulates a small quickstart answer and saves it under dir.
func writeAnswer(t *testing.T, dir, name string, photons int64) {
	t.Helper()
	sc, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(sc, core.DefaultConfig(photons))
	if err != nil {
		t.Fatal(err)
	}
	if err := answer.FromResult(res).SaveFile(filepath.Join(dir, name)); err != nil {
		t.Fatal(err)
	}
}

// newTestServer stands up a photon-serve instance over a scratch answer
// directory with a tiny on-demand simulation budget.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	writeAnswer(t, dir, "q.pbf", 2000)
	cfg.AnswerDir = dir
	if cfg.SimPhotons == 0 {
		cfg.SimPhotons = 1500
	}
	if cfg.SimWorkers == 0 {
		cfg.SimWorkers = 2
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts, dir
}

// get fetches url and returns the response and full body.
func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestServeHealthzAndScenes(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d: %s", resp.StatusCode, body)
	}
	var health struct {
		Status string `json:"status"`
		Cached int    `json:"cached"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("/healthz not JSON: %v\n%s", err, body)
	}
	if health.Status != "ok" {
		t.Errorf("status = %q, want ok", health.Status)
	}

	resp, body = get(t, ts.URL+"/scenes")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/scenes = %d", resp.StatusCode)
	}
	var sc struct {
		Scenes      []string `json:"scenes"`
		GenFamilies []string `json:"gen_families"`
	}
	if err := json.Unmarshal(body, &sc); err != nil {
		t.Fatalf("/scenes not JSON: %v", err)
	}
	if len(sc.Scenes) != len(scenes.Names()) {
		t.Errorf("scenes = %v, want %v", sc.Scenes, scenes.Names())
	}
	if len(sc.GenFamilies) != len(scenegen.Families()) {
		t.Errorf("gen_families = %v, want %v", sc.GenFamilies, scenegen.Families())
	}
}

func TestServeRenderAnswerFile(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	url := ts.URL + "/render?answer=q.pbf&w=64&h=48&samples=2"

	resp, first := get(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first render = %d: %s", resp.StatusCode, first)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/png" {
		t.Errorf("Content-Type = %q", ct)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "MISS" {
		t.Errorf("first request X-Cache = %q, want MISS", xc)
	}
	if resp.Header.Get("X-Render-Ms") == "" {
		t.Error("X-Render-Ms timing header missing")
	}
	img, err := png.Decode(bytes.NewReader(first))
	if err != nil {
		t.Fatalf("response is not a PNG: %v", err)
	}
	if b := img.Bounds(); b.Dx() != 64 || b.Dy() != 48 {
		t.Errorf("image %dx%d, want 64x48", b.Dx(), b.Dy())
	}

	resp, second := get(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second render = %d", resp.StatusCode)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "HIT" {
		t.Errorf("second request X-Cache = %q, want HIT", xc)
	}
	if !bytes.Equal(first, second) {
		t.Error("identical request rendered different bytes")
	}
}

func TestServeOnDemandScene(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	resp, body := get(t, ts.URL+"/render?scene=quickstart&w=48&h=32")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scene render = %d: %s", resp.StatusCode, body)
	}
	if _, err := png.Decode(bytes.NewReader(body)); err != nil {
		t.Fatalf("scene response not a PNG: %v", err)
	}
	if resp.Header.Get("X-Photons") == "" {
		t.Error("X-Photons header missing")
	}
	if r, m := s.metrics.Renders.Value(), s.metrics.CacheMisses.Value(); r != 1 || m != 1 {
		t.Errorf("renders/misses after one scene render = %d/%d, want 1/1", r, m)
	}
}

// TestServeGeneratedScene: generator specs work as on-demand scenes. The
// spec travels as a query value containing '/' and '=' characters, so this
// also pins that URL parsing keeps the full spec intact, and that an
// unparsable spec maps to a client error rather than a 500 retry loop.
func TestServeGeneratedScene(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	resp, body := get(t, ts.URL+"/render?scene=gen:office/seed=42/rooms=2/density=0.7&w=48&h=32")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generated scene render = %d: %s", resp.StatusCode, body)
	}
	if _, err := png.Decode(bytes.NewReader(body)); err != nil {
		t.Fatalf("generated scene response not a PNG: %v", err)
	}
	if r, m := s.metrics.Renders.Value(), s.metrics.CacheMisses.Value(); r != 1 || m != 1 {
		t.Errorf("renders/misses after one generated-scene render = %d/%d, want 1/1", r, m)
	}
	// Second hit comes from cache: the canonical spec is the cache key,
	// so a permuted spelling of the same spec must also hit (not pay a
	// second stage-one simulation).
	resp, _ = get(t, ts.URL+"/render?scene=gen:office/seed=42/rooms=2/density=0.7&w=48&h=32")
	if xc := resp.Header.Get("X-Cache"); xc != "HIT" {
		t.Errorf("second generated-scene request X-Cache = %q, want HIT", xc)
	}
	resp, _ = get(t, ts.URL+"/render?scene=gen:office/density=0.7/seed=42/rooms=2&w=48&h=32")
	if xc := resp.Header.Get("X-Cache"); xc != "HIT" {
		t.Errorf("permuted-spec request X-Cache = %q, want HIT (canonical key)", xc)
	}
	resp, _ = get(t, ts.URL+"/render?scene=gen:office/rooms=99&w=48&h=32")
	if resp.StatusCode == http.StatusOK || resp.StatusCode >= 500 {
		t.Errorf("invalid spec returned %d, want a 4xx/404-class error", resp.StatusCode)
	}
}

// TestServeConcurrentRequests: many clients against a mix of cached and
// uncached solutions; every response must succeed and identical requests
// must yield identical bytes (renders are pure reads over the forest).
func TestServeConcurrentRequests(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	url := ts.URL + "/render?answer=q.pbf&w=40&h=30&samples=2"

	const clients = 16
	images := make([][]byte, clients)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				errs <- err
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			images[i] = body
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(images[0], images[i]) {
			t.Fatalf("client %d received different bytes for the identical request", i)
		}
	}
	if m := s.metrics.CacheMisses.Value(); m != 1 {
		t.Errorf("%d concurrent first requests caused %d loads, want 1 (singleflight)", clients, m)
	}
	if r := s.metrics.Renders.Value(); r != clients {
		t.Errorf("renders = %d, want %d", r, clients)
	}
}

func TestServeBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{MaxPixels: 64 * 64, MaxSamples: 2})
	cases := []struct {
		name string
		path string
		want int
	}{
		{"no source", "/render?w=32&h=32", http.StatusBadRequest},
		{"both sources", "/render?answer=q.pbf&scene=quickstart", http.StatusBadRequest},
		{"bad eye", "/render?answer=q.pbf&eye=1,2", http.StatusBadRequest},
		{"unparseable fov", "/render?answer=q.pbf&fov=wide", http.StatusBadRequest},
		{"fov out of range", "/render?answer=q.pbf&fov=180", http.StatusBadRequest},
		{"zero width", "/render?answer=q.pbf&w=0&h=32", http.StatusBadRequest},
		{"too many pixels", "/render?answer=q.pbf&w=100&h=100", http.StatusBadRequest},
		{"pixel-product overflow", "/render?answer=q.pbf&w=4294967296&h=4294967296", http.StatusBadRequest},
		{"too many samples", "/render?answer=q.pbf&samples=5", http.StatusBadRequest},
		{"eye equals lookat", "/render?answer=q.pbf&eye=1,1,1&lookat=1,1,1", http.StatusBadRequest},
		{"path traversal", "/render?answer=../q.pbf", http.StatusBadRequest},
		{"absolute path", "/render?answer=/etc/passwd", http.StatusBadRequest},
		{"missing answer", "/render?answer=nope.pbf&w=32&h=32", http.StatusNotFound},
		{"unknown scene", "/render?scene=atrium&w=32&h=32", http.StatusNotFound},
	}
	for _, c := range cases {
		resp, body := get(t, ts.URL+c.path)
		if resp.StatusCode != c.want {
			t.Errorf("%s: %s = %d (%s), want %d", c.name, c.path, resp.StatusCode, body, c.want)
		}
	}

	resp, err := http.Post(ts.URL+"/render?answer=q.pbf", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST = %d, want 405", resp.StatusCode)
	}
}

// TestServeCacheEviction: with CacheSize=1 the second answer evicts the
// first, so returning to it re-loads (MISS) — and the failed load of a
// bad file is not negatively cached.
func TestServeCacheEviction(t *testing.T) {
	s, ts, dir := newTestServer(t, Config{CacheSize: 1})
	writeAnswer(t, dir, "r.pbf", 1000)

	for _, step := range []struct {
		file, want string
	}{
		{"q.pbf", "MISS"},
		{"q.pbf", "HIT"},
		{"r.pbf", "MISS"}, // fills the single slot, evicting q
		{"q.pbf", "MISS"}, // q was evicted
	} {
		resp, body := get(t, ts.URL+"/render?answer="+step.file+"&w=16&h=16")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", step.file, resp.StatusCode, body)
		}
		if xc := resp.Header.Get("X-Cache"); xc != step.want {
			t.Errorf("%s: X-Cache = %s, want %s", step.file, xc, step.want)
		}
	}

	// A load failure must be forgotten: drop a file in after a 404 and the
	// retry succeeds.
	resp, _ := get(t, ts.URL+"/render?answer=late.pbf&w=16&h=16")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing answer = %d, want 404", resp.StatusCode)
	}
	writeAnswer(t, dir, "late.pbf", 1000)
	resp, body := get(t, ts.URL+"/render?answer=late.pbf&w=16&h=16")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("late answer still failing after creation: %d: %s", resp.StatusCode, body)
	}

	if s.metrics.Errors4xx.Value() == 0 {
		t.Error("4xx telemetry not counting")
	}
	_ = os.Remove(filepath.Join(dir, "late.pbf"))
}

// TestMetricsEndpoint: /metrics must serve the Prometheus content type,
// parse under the repo's own exposition validator, and carry the request
// and cache families with values matching the server's counters.
func TestMetricsEndpoint(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	get(t, ts.URL+"/render?answer=q.pbf&w=16&h=16")
	get(t, ts.URL+"/render?answer=q.pbf&w=16&h=16")

	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	exp, err := obs.ParseExposition(string(body))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, body)
	}
	values := map[string]float64{}
	for _, sample := range exp.Samples {
		if cls, ok := sample.Label("class"); ok {
			values[sample.Name+"{"+cls+"}"] = sample.Value
			continue
		}
		values[sample.Name] = sample.Value
	}
	for metric, c := range map[string]*obs.Counter{
		"photon_http_requests_total":   s.metrics.Requests,
		"photon_renders_total":         s.metrics.Renders,
		"photon_cache_hits_total":      s.metrics.CacheHits,
		"photon_cache_misses_total":    s.metrics.CacheMisses,
		"photon_cache_evictions_total": s.metrics.CacheEvictions,
	} {
		got, ok := values[metric]
		if !ok {
			t.Errorf("/metrics missing %s", metric)
			continue
		}
		// The request counter ticks before the handler runs, so the
		// scrape sees itself; the counter read afterwards agrees.
		if int64(got) != c.Value() {
			t.Errorf("%s = %v, counter = %d", metric, got, c.Value())
		}
	}
	if exp.Types["photon_http_request_seconds"] != "histogram" {
		t.Errorf("photon_http_request_seconds TYPE = %q, want histogram", exp.Types["photon_http_request_seconds"])
	}
	// The scrape observes its own latency only after writing the body, so
	// the exposition carries just the two renders at this point.
	if values["photon_http_request_seconds_count"] < 2 {
		t.Errorf("request histogram count = %v, want >= 2", values["photon_http_request_seconds_count"])
	}
	if values["photon_cache_resident"] != 1 {
		t.Errorf("photon_cache_resident = %v, want 1", values["photon_cache_resident"])
	}
}

// TestSlowRequestLog: a render slower than SlowThreshold must emit one
// SLOW line carrying the cache key, cache state and duration.
func TestSlowRequestLog(t *testing.T) {
	var buf bytes.Buffer
	mu := &sync.Mutex{}
	_, ts, _ := newTestServer(t, Config{
		Log:           log.New(lockedWriter{mu, &buf}, "", 0),
		SlowThreshold: 1 * time.Nanosecond, // every render is "slow"
	})
	get(t, ts.URL+"/render?answer=q.pbf&w=16&h=16")
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "SLOW render") {
		t.Fatalf("no SLOW line logged:\n%s", out)
	}
	if !strings.Contains(out, "answer:") || !strings.Contains(out, "cache=MISS") {
		t.Errorf("SLOW line missing key or cache state:\n%s", out)
	}
}

// lockedWriter serializes test-log writes against the test's reads.
type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestPprofGating: the profiling surface exists only when asked for.
func TestPprofGating(t *testing.T) {
	_, off, _ := newTestServer(t, Config{})
	resp, _ := get(t, off.URL+"/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without EnablePprof = %d, want 404", resp.StatusCode)
	}
	_, on, _ := newTestServer(t, Config{EnablePprof: true})
	resp, _ = get(t, on.URL+"/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with EnablePprof = %d, want 200", resp.StatusCode)
	}
}
