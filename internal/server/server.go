// Package server implements the photon-serve HTTP service: the paper's
// two-stage pipeline as a rendering farm. Stage one (simulation) produces
// durable answer files; this server keeps a bounded LRU cache of loaded
// answers — each one a view-independent radiance database — and renders
// any requested viewpoint on demand with the tile-parallel viewer. Because
// a render only reads the forest, any number of requests against the same
// answer proceed concurrently with no locking on the hot path, which is
// exactly why the paper's answer-file design suits serving: simulate once,
// view from millions of eyes.
//
// Endpoints:
//
//	GET /render?answer=FILE.pbf|scene=NAME&eye=x,y,z&lookat=x,y,z&up=x,y,z
//	           &fov=F&w=W&h=H&samples=N&seed=S&exposure=E
//	           &quality=full|probe                          → image/png
//	GET /scenes   → JSON list of built-in scenes + generator families
//	GET /healthz  → liveness + cache occupancy
//	GET /metrics  → request/render/cache/admission telemetry in Prometheus
//	                text format 0.0.4
//
// With Config.EnablePprof the standard net/http/pprof handlers are also
// mounted under /debug/pprof/.
//
// `answer` names a .pbf file inside Config.AnswerDir; `scene` names a
// built-in scene or a generator spec (gen:<family>/seed=N/..., see
// internal/scenegen), which is simulated once on first request (stage one
// run lazily, Config.SimPhotons photons on the shared engine) and then
// served from the same cache — the canonical spec is the cache key.
// Responses carry X-Cache (HIT/MISS), X-Quality and X-Render-Ms headers.
//
// quality=full (the default) renders from the forest and is byte-stable
// across requests; quality=probe renders from the per-patch radiance
// probes baked when the solution entered the cache (internal/probe): same
// visibility, approximate shading, an order of magnitude faster. The probe
// path is band-limited by construction, so `samples` and `seed` do not
// apply to it.
//
// HEAD /render validates the request and resolves the solution through the
// cache (loading or simulating it exactly as GET would) but performs no
// render: the response carries Content-Type, X-Cache, X-Quality and
// X-Photons, and deliberately no Content-Length or X-Render-Ms, since no
// image was produced.
//
// The server admits at most Config.MaxConcurrentRenders renders at once;
// beyond that, requests wait in a bounded queue (Config.MaxQueueDepth,
// Config.QueueTimeout) and are shed with 429 + Retry-After when the queue
// is full or the deadline passes — overload degrades into fast, explicit
// rejections instead of a latency collapse. Shed counts and queue depth
// are surfaced in /metrics.
package server

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"image"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/answer"
	"repro/internal/bintree"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/scenegen"
	"repro/internal/scenes"
	"repro/internal/shared"
	"repro/internal/vecmath"
	"repro/internal/view"
)

// Config parameterizes the server.
type Config struct {
	// AnswerDir is the directory `answer=` requests are resolved inside;
	// empty disables answer-file serving (scene= still works).
	AnswerDir string
	// CacheSize bounds the number of resident solutions (default 8).
	CacheSize int
	// SimPhotons is the photon budget for on-demand simulation of built-in
	// scenes (default 200000).
	SimPhotons int64
	// SimWorkers is the shared-engine worker count for on-demand
	// simulation (default runtime.GOMAXPROCS(0)).
	SimWorkers int
	// RenderWorkers is the tile-renderer worker count per request
	// (default: the viewer's own default, GOMAXPROCS).
	RenderWorkers int
	// MaxPixels caps w*h per request (default 2 097 152, a 2 MP frame).
	MaxPixels int
	// MaxSamples caps the per-axis supersampling factor (default 4).
	MaxSamples int
	// Log, when non-nil, receives one line per request.
	Log *log.Logger
	// SlowThreshold, when positive, logs any render that took at least
	// this long (scene/answer key, cache state, duration) to Log — the
	// request-level tail-latency tripwire. Zero disables it.
	SlowThreshold time.Duration
	// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/.
	// Off by default: the profiling surface is opt-in.
	EnablePprof bool
	// MaxConcurrentRenders bounds how many /render requests may occupy the
	// render (or fill) stage at once (default 2×GOMAXPROCS).
	MaxConcurrentRenders int
	// MaxQueueDepth bounds how many requests may wait for a render slot;
	// arrivals beyond it are shed immediately with 429 (default 64).
	MaxQueueDepth int
	// QueueTimeout is how long a queued request waits for a slot before it
	// is shed with 429 (default 5s).
	QueueTimeout time.Duration
	// ProbeCells and ProbeTerms tune the probe grids baked at cache-fill
	// time for quality=probe serving (0 selects internal/probe defaults).
	ProbeCells int
	ProbeTerms int
}

func (c *Config) normalize() {
	if c.CacheSize <= 0 {
		c.CacheSize = 8
	}
	if c.SimPhotons <= 0 {
		c.SimPhotons = 200000
	}
	if c.SimWorkers <= 0 {
		c.SimWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxPixels <= 0 {
		c.MaxPixels = 2 << 20
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = 4
	}
	if c.MaxConcurrentRenders <= 0 {
		c.MaxConcurrentRenders = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueueDepth <= 0 {
		c.MaxQueueDepth = 64
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 5 * time.Second
	}
}

// Metrics are the server's telemetry instruments, registered on the
// server's obs.Registry so /metrics exports them in Prometheus text
// format. Counters are monotone; the histograms carry the latency
// distributions.
type Metrics struct {
	Requests       *obs.Counter // every HTTP request
	Renders        *obs.Counter // successful /render responses
	CacheHits      *obs.Counter // /render served from a resident solution
	CacheMisses    *obs.Counter // /render that had to load or simulate
	CacheEvictions *obs.Counter // resident solutions displaced by the LRU
	Errors4xx      *obs.Counter
	Errors5xx      *obs.Counter
	Shed           *obs.Counter   // requests rejected by admission control
	RequestSeconds *obs.Histogram // wall time of every request
	RenderSeconds  *obs.Histogram // wall time of successful renders
	CacheResident  *obs.Gauge     // solutions currently resident
	QueueDepth     *obs.Gauge     // requests waiting for a render slot
}

func newMetrics(reg *obs.Registry) Metrics {
	return Metrics{
		Requests:       reg.Counter("photon_http_requests_total", "HTTP requests received"),
		Renders:        reg.Counter("photon_renders_total", "successful /render responses"),
		CacheHits:      reg.Counter("photon_cache_hits_total", "renders served from a resident solution"),
		CacheMisses:    reg.Counter("photon_cache_misses_total", "renders that had to load or simulate"),
		CacheEvictions: reg.Counter("photon_cache_evictions_total", "resident solutions displaced by the LRU"),
		Errors4xx:      reg.Counter("photon_http_errors_total", "error responses by class", obs.L("class", "4xx")),
		Errors5xx:      reg.Counter("photon_http_errors_total", "error responses by class", obs.L("class", "5xx")),
		Shed:           reg.Counter("photon_shed_total", "requests rejected by admission control"),
		RequestSeconds: reg.Histogram("photon_http_request_seconds", "request wall time", nil),
		RenderSeconds:  reg.Histogram("photon_render_seconds", "render wall time of successful renders", nil),
		CacheResident:  reg.Gauge("photon_cache_resident", "solutions currently resident in the cache"),
		QueueDepth:     reg.Gauge("photon_admission_queue_depth", "requests waiting for a render slot"),
	}
}

// entry is one cached solution. The sync.Once collapses concurrent first
// requests for the same key into a single load/simulation; late arrivals
// block on the Once and then share the resident forest.
type entry struct {
	key  string
	once sync.Once

	// filled is set under Server.mu when the once has completed. The LRU
	// never evicts an unfilled entry: evicting an in-flight fill would let
	// a later request for the same key start a second simulation, and
	// under cache thrash that unbounds concurrent fills entirely.
	filled bool

	scene   *scenes.Scene
	forest  *bintree.Forest
	grid    *probe.Grid // baked at fill time; serves quality=probe
	emitted int64
	err     error
}

// Server is the photon-serve HTTP handler.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	start   time.Time
	reg     *obs.Registry
	metrics Metrics

	// LRU solution cache: order's front is most recently used.
	mu    sync.Mutex
	order *list.List
	items map[string]*list.Element

	// Admission control: slots is the render-concurrency semaphore,
	// queued counts requests waiting for a slot.
	slots  chan struct{}
	queued atomic.Int64

	// fillHook, when non-nil, is called with the cache key at the start of
	// every fill. Tests use it to count and gate fills; nil in production.
	fillHook func(key string)
}

// New constructs a Server; use it directly as an http.Handler.
func New(cfg Config) *Server {
	cfg.normalize()
	reg := obs.NewRegistry()
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		start:   time.Now(),
		reg:     reg,
		metrics: newMetrics(reg),
		order:   list.New(),
		items:   make(map[string]*list.Element),
		slots:   make(chan struct{}, cfg.MaxConcurrentRenders),
	}
	s.mux.HandleFunc("/render", s.handleRender)
	s.mux.HandleFunc("/scenes", s.handleScenes)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// MetricsSnapshot returns the current counters by name, for in-process
// callers that sum them across servers (the benchmark's farm). render_ms
// is the render histogram's sum rounded to whole milliseconds.
func (s *Server) MetricsSnapshot() map[string]int64 {
	return map[string]int64{
		"requests":        s.metrics.Requests.Value(),
		"renders":         s.metrics.Renders.Value(),
		"cache_hits":      s.metrics.CacheHits.Value(),
		"cache_misses":    s.metrics.CacheMisses.Value(),
		"cache_evictions": s.metrics.CacheEvictions.Value(),
		"errors_4xx":      s.metrics.Errors4xx.Value(),
		"errors_5xx":      s.metrics.Errors5xx.Value(),
		"shed":            s.metrics.Shed.Value(),
		"render_ms":       int64(math.Round(s.metrics.RenderSeconds.Sum() * 1e3)),
	}
}

// statusWriter records the response code for telemetry and logging.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// ServeHTTP dispatches with request counting, error-class telemetry and
// optional per-request logging.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.Inc()
	// The pprof endpoints manage their own methods (symbol accepts POST),
	// but only when they are actually mounted — with EnablePprof off the
	// pprof paths are ordinary unmounted paths and the read-only GET/HEAD
	// contract applies to them like everything else.
	pprofExempt := s.cfg.EnablePprof && strings.HasPrefix(r.URL.Path, "/debug/pprof/")
	if r.Method != http.MethodGet && r.Method != http.MethodHead && !pprofExempt {
		s.metrics.Errors4xx.Inc()
		http.Error(w, "only GET is supported", http.StatusMethodNotAllowed)
		return
	}
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	start := time.Now()
	s.mux.ServeHTTP(sw, r)
	elapsed := time.Since(start)
	s.metrics.RequestSeconds.Observe(elapsed.Seconds())
	switch {
	case sw.code >= 500:
		s.metrics.Errors5xx.Inc()
	case sw.code >= 400:
		s.metrics.Errors4xx.Inc()
	}
	if s.cfg.Log != nil {
		s.cfg.Log.Printf("%s %s -> %d (%v)", r.Method, r.URL.RequestURI(), sw.code,
			elapsed.Round(time.Millisecond))
	}
}

// lookup returns the cache entry for key, creating (and LRU-evicting) as
// needed. found reports whether the entry was already resident — the
// cache-hit signal, even if its load is still in flight on another request.
func (s *Server) lookup(key string) (e *entry, found bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.order.MoveToFront(el)
		return el.Value.(*entry), true
	}
	e = &entry{key: key}
	s.items[key] = s.order.PushFront(e)
	s.evictLocked()
	return e, false
}

// evictLocked trims the cache to capacity, evicting from the LRU end but
// never an entry whose fill is still in flight: an evicted in-flight entry
// would let the next request for the same key start a second simulation.
// When every excess entry is mid-fill the cache temporarily overflows
// instead; markFilled re-trims as fills complete. Callers hold s.mu.
func (s *Server) evictLocked() {
	for el := s.order.Back(); el != nil && s.order.Len() > s.cfg.CacheSize; {
		prev := el.Prev()
		if e := el.Value.(*entry); e.filled {
			s.order.Remove(el)
			delete(s.items, e.key)
			s.metrics.CacheEvictions.Inc()
		}
		el = prev
	}
}

// markFilled records that e's fill has completed (making it evictable) and
// trims any overflow the pin accumulated. Idempotent; called after every
// once.Do so late sharers converge on the same state.
func (s *Server) markFilled(e *entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !e.filled {
		e.filled = true
		s.evictLocked()
	}
}

// forget drops a failed entry so a later request retries the load (e.g.
// after the missing file appears) instead of serving a cached error.
func (s *Server) forget(e *entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[e.key]; ok && el.Value.(*entry) == e {
		s.order.Remove(el)
		delete(s.items, e.key)
	}
}

// admit applies admission control: it acquires a render slot, waiting in
// the bounded queue if none is free. It returns a release func on success,
// or nil and the HTTP status to shed with (429) when the queue is full,
// the queue deadline passes, or the client goes away first.
func (s *Server) admit(ctx context.Context) (release func(), status int) {
	select {
	case s.slots <- struct{}{}:
		return func() { <-s.slots }, 0
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.MaxQueueDepth) {
		s.queued.Add(-1)
		s.metrics.Shed.Inc()
		return nil, http.StatusTooManyRequests
	}
	defer s.queued.Add(-1)
	timer := time.NewTimer(s.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case s.slots <- struct{}{}:
		return func() { <-s.slots }, 0
	case <-timer.C:
		s.metrics.Shed.Inc()
		return nil, http.StatusTooManyRequests
	case <-ctx.Done():
		s.metrics.Shed.Inc()
		return nil, http.StatusTooManyRequests
	}
}

// retryAfter is the Retry-After value sent with 429s: the queue timeout
// rounded up to whole seconds — by then the present queue has drained or
// been shed, so it is an honest earliest-useful-retry hint.
func (s *Server) retryAfter() string {
	secs := int(math.Ceil(s.cfg.QueueTimeout.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// answerPath resolves name inside AnswerDir, rejecting traversal.
func (s *Server) answerPath(name string) (string, error) {
	if s.cfg.AnswerDir == "" {
		return "", fmt.Errorf("answer-file serving is disabled (no answer directory configured)")
	}
	clean := filepath.Clean(filepath.FromSlash(name))
	if clean == "." || filepath.IsAbs(clean) || clean == ".." ||
		strings.HasPrefix(clean, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("invalid answer name %q", name)
	}
	return filepath.Join(s.cfg.AnswerDir, clean), nil
}

// loadAnswer populates e from a .pbf answer file.
func (e *entry) loadAnswer(path string) {
	sol, err := answer.LoadFile(path)
	if err != nil {
		e.err = err
		return
	}
	sc, err := sol.Scene()
	if err != nil {
		e.err = err
		return
	}
	e.scene, e.forest, e.emitted = sc, sol.Forest, sol.EmittedPhotons
}

// errBadScene marks scene-resolution failures — an unknown built-in name
// or an invalid generator spec. They are the client's error (the scene the
// request names does not exist), so the handler maps them to 404 rather
// than a 500 that monitoring would page on.
var errBadScene = errors.New("bad scene")

// simulateScene populates e by running stage one on a built-in scene or
// generator spec.
func (e *entry) simulateScene(name string, photons int64, workers int) {
	ctor, err := scenes.ByName(name)
	if err != nil {
		e.err = fmt.Errorf("%w: %v", errBadScene, err)
		return
	}
	sc, err := ctor()
	if err != nil {
		e.err = err
		return
	}
	res, err := shared.Run(sc, shared.Config{Core: core.DefaultConfig(photons), Workers: workers})
	if err != nil {
		e.err = err
		return
	}
	e.scene, e.forest, e.emitted = sc, res.Forest, res.EmittedPhotons
}

// badRequest writes a 400 with a plain-text reason.
func badRequest(w http.ResponseWriter, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), http.StatusBadRequest)
}

// queryVec parses a "x,y,z" query parameter, using def when absent.
func queryVec(q map[string][]string, key string, def vecmath.Vec3) (vecmath.Vec3, error) {
	vs, ok := q[key]
	if !ok || len(vs) == 0 {
		return def, nil
	}
	parts := strings.Split(vs[0], ",")
	if len(parts) != 3 {
		return vecmath.Vec3{}, fmt.Errorf("%s: want x,y,z, got %q", key, vs[0])
	}
	var out [3]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return vecmath.Vec3{}, fmt.Errorf("%s: %v", key, err)
		}
		out[i] = f
	}
	return vecmath.V(out[0], out[1], out[2]), nil
}

// queryFloat parses a float query parameter, using def when absent.
func queryFloat(q map[string][]string, key string, def float64) (float64, error) {
	vs, ok := q[key]
	if !ok || len(vs) == 0 {
		return def, nil
	}
	f, err := strconv.ParseFloat(vs[0], 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %v", key, err)
	}
	return f, nil
}

// queryInt parses an int query parameter, using def when absent.
func queryInt(q map[string][]string, key string, def int) (int, error) {
	vs, ok := q[key]
	if !ok || len(vs) == 0 {
		return def, nil
	}
	n, err := strconv.Atoi(vs[0])
	if err != nil {
		return 0, fmt.Errorf("%s: %v", key, err)
	}
	return n, nil
}

func (s *Server) handleRender(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	answerName, sceneName := q.Get("answer"), q.Get("scene")
	if (answerName == "") == (sceneName == "") {
		badRequest(w, "exactly one of answer= or scene= is required")
		return
	}

	// Camera and quality parameters; every present parameter must parse.
	eye, err := queryVec(q, "eye", vecmath.V(2, 0.3, 1.5))
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	lookat, err := queryVec(q, "lookat", vecmath.V(2, 4, 1.2))
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	up, err := queryVec(q, "up", vecmath.V(0, 0, 1))
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	fov, err := queryFloat(q, "fov", 65)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	width, err := queryInt(q, "w", 320)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	height, err := queryInt(q, "h", 240)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	samples, err := queryInt(q, "samples", 1)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	seed, err := queryInt(q, "seed", 1)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	exposure, err := queryFloat(q, "exposure", 0)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	// 0 selects automatic exposure; NaN fails the comparison.
	if !(exposure >= 0 && exposure <= math.MaxFloat64) {
		badRequest(w, "exposure %v not a finite value >= 0", exposure)
		return
	}
	quality := q.Get("quality")
	switch quality {
	case "", "full":
		quality = "full"
	case "probe":
	default:
		badRequest(w, "quality %q not in {probe, full}", quality)
		return
	}
	// Overflow-safe bound: width > MaxPixels/height, never width*height.
	if width <= 0 || height <= 0 || width > s.cfg.MaxPixels/height {
		badRequest(w, "image %dx%d out of bounds (max %d pixels)", width, height, s.cfg.MaxPixels)
		return
	}
	if samples < 1 || samples > s.cfg.MaxSamples {
		badRequest(w, "samples %d out of [1,%d]", samples, s.cfg.MaxSamples)
		return
	}
	cam := view.Camera{
		Eye: eye, LookAt: lookat, Up: up,
		FovY: fov, Width: width, Height: height,
	}
	if err := cam.Validate(); err != nil {
		badRequest(w, "%v", err)
		return
	}

	// Admission control covers everything costly downstream: the fill
	// (which may simulate) and the render itself. Validation stayed above
	// it so malformed requests fail fast without occupying a slot.
	release, shedCode := s.admit(r.Context())
	if release == nil {
		w.Header().Set("Retry-After", s.retryAfter())
		http.Error(w, "overloaded: retry later", shedCode)
		return
	}
	defer release()

	// Resolve the solution through the LRU cache.
	var key string
	var fill func(*entry)
	var notFound func(error) bool
	if answerName != "" {
		path, err := s.answerPath(answerName)
		if err != nil {
			badRequest(w, "%v", err)
			return
		}
		key = "answer:" + path
		fill = func(e *entry) { e.loadAnswer(path) }
		notFound = os.IsNotExist
	} else {
		if scenegen.IsSpec(sceneName) {
			// Canonicalize generator specs before keying: permuted or
			// defaults-omitted spellings of the same scene must share one
			// cache entry (and one stage-one simulation), and an
			// unparsable spec is a 404 before it ever occupies a slot.
			spec, err := scenegen.Parse(sceneName)
			if err != nil {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			sceneName = spec.String()
		}
		name := sceneName
		key = "scene:" + name
		fill = func(e *entry) { e.simulateScene(name, s.cfg.SimPhotons, s.cfg.SimWorkers) }
		notFound = func(err error) bool { return errors.Is(err, errBadScene) }
	}
	e, found := s.lookup(key)
	s.countLookup(found)
	e.once.Do(func() {
		if s.fillHook != nil {
			s.fillHook(key)
		}
		fill(e)
		e.bakeProbes(s.cfg)
	})
	s.markFilled(e)
	if e.err != nil {
		s.forget(e)
		code := http.StatusInternalServerError
		if notFound(e.err) {
			code = http.StatusNotFound
		}
		http.Error(w, e.err.Error(), code)
		return
	}
	if r.Method == http.MethodHead {
		// HEAD resolved (and possibly filled) the solution but renders
		// nothing: report what a GET would say about the solution, omit
		// Content-Length and X-Render-Ms — no image exists to measure.
		h := w.Header()
		h.Set("Content-Type", "image/png")
		setCacheHeader(h, found)
		h.Set("X-Quality", quality)
		h.Set("X-Photons", strconv.FormatInt(e.emitted, 10))
		w.WriteHeader(http.StatusOK)
		return
	}
	s.respondRender(w, e, found, cam, exposure, samples, int64(seed), quality)
}

// bakeProbes derives the entry's probe grid from its freshly filled
// forest; runs inside the entry's once, after fill, so every resident
// solution can serve quality=probe without touching the forest again.
func (e *entry) bakeProbes(cfg Config) {
	if e.err != nil {
		return
	}
	g, err := probe.Bake(e.scene, e.forest, probe.Config{
		Cells: cfg.ProbeCells,
		Terms: cfg.ProbeTerms,
	})
	if err != nil {
		e.err = fmt.Errorf("baking probes: %w", err)
		return
	}
	e.grid = g
}

// setCacheHeader writes the X-Cache HIT/MISS header.
func setCacheHeader(h http.Header, cached bool) {
	if cached {
		h.Set("X-Cache", "HIT")
	} else {
		h.Set("X-Cache", "MISS")
	}
}

func (s *Server) countLookup(found bool) {
	if found {
		s.metrics.CacheHits.Inc()
	} else {
		s.metrics.CacheMisses.Inc()
	}
}

// respondRender renders the cached solution and writes the PNG. Both
// paths are pure reads — the forest and the probe grid are immutable once
// filled — so concurrent requests against the same entry need no
// synchronization.
func (s *Server) respondRender(w http.ResponseWriter, e *entry, cached bool,
	cam view.Camera, exposure float64, samples int, seed int64, quality string) {
	start := time.Now()
	var img *image.RGBA
	var err error
	if quality == "probe" {
		img, err = probe.Render(e.scene, e.grid, cam, probe.Options{Exposure: exposure})
	} else {
		img, err = view.Render(e.scene, e.forest, cam, view.Options{
			Exposure: exposure,
			Workers:  s.cfg.RenderWorkers,
			Samples:  samples,
			Seed:     seed,
		})
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	elapsed := time.Since(start)
	s.metrics.RenderSeconds.Observe(elapsed.Seconds())
	if s.cfg.SlowThreshold > 0 && elapsed >= s.cfg.SlowThreshold && s.cfg.Log != nil {
		state := "MISS"
		if cached {
			state = "HIT"
		}
		s.cfg.Log.Printf("SLOW render %s cache=%s %dx%d samples=%d took %v (threshold %v)",
			e.key, state, cam.Width, cam.Height, samples,
			elapsed.Round(time.Millisecond), s.cfg.SlowThreshold)
	}

	// Encode to a buffer first so an encoding failure can still 500
	// instead of truncating a 200.
	var buf bytes.Buffer
	if err := view.WritePNG(&buf, img); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "image/png")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	h.Set("X-Render-Ms", strconv.FormatInt(elapsed.Milliseconds(), 10))
	setCacheHeader(h, cached)
	h.Set("X-Quality", quality)
	h.Set("X-Photons", strconv.FormatInt(e.emitted, 10))
	s.metrics.Renders.Inc()
	w.Write(buf.Bytes())
}

// writeJSON encodes v to a buffer first so an encoding failure becomes a
// clean 500 instead of a silently truncated 200 body.
func writeJSON(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.Write(buf.Bytes())
}

func (s *Server) handleScenes(w http.ResponseWriter, r *http.Request) {
	// scenes: the built-in names; gen_families: the procedural families
	// accepted as scene=gen:<family>/seed=N/... specs.
	writeJSON(w, map[string]any{
		"scenes":       scenes.Names(),
		"gen_families": scenegen.Families(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	resident := s.order.Len()
	s.mu.Unlock()
	writeJSON(w, map[string]any{
		"status":    "ok",
		"uptime_ms": time.Since(s.start).Milliseconds(),
		"cached":    resident,
	})
}

// handleMetrics serves the registry in Prometheus text format 0.0.4. The
// resident-solution gauge is refreshed at scrape time: it is a level, not
// an event stream, so sampling it here keeps it exact without touching
// the cache's hot path.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	resident := s.order.Len()
	s.mu.Unlock()
	s.metrics.CacheResident.Set(float64(resident))
	s.metrics.QueueDepth.Set(float64(s.queued.Load()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}
