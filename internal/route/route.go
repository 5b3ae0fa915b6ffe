// Package route implements photon-route, the serving tier's thin
// stateless dispatcher. A photon-serve replica's value is its cache: a
// resident solution serves renders in milliseconds, a cold one pays a
// load or a full stage-one simulation. The router therefore shards by
// solution, not by request: every request is reduced to the canonical
// cache key its replica would use ("answer:NAME" or "scene:CANONICAL-SPEC",
// generator specs canonicalized exactly as the server canonicalizes them)
// and rendezvous-hashed across the replica set, so all traffic for one
// scene lands on one replica and each solution is simulated and held
// exactly once across the farm.
//
// Rendezvous (highest-random-weight) hashing was chosen over a hash ring
// because its stability property is the whole point here: adding or
// removing a replica only moves the keys that hashed to that replica —
// every other key keeps its cache-warm home. The router holds no routing
// table, no rebalancing state, nothing to persist: score(replica, key) is
// a pure function, so any number of router instances agree without
// coordination.
//
// Replicas are health-checked (GET /healthz on an interval) and a request
// routes to the highest-scoring healthy replica; on a transport error or
// a 5xx the router retries down the preference order, so a dying replica
// degrades into cold-cache latency on its keys rather than errors. 429s
// propagate immediately — shedding is the backend protecting itself, and
// retrying elsewhere would defeat cache affinity exactly when the farm is
// loaded.
package route

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/scenegen"
)

// Config parameterizes the router.
type Config struct {
	// Replicas are the photon-serve base URLs (e.g. http://10.0.0.1:8080).
	Replicas []string
	// HealthInterval is the /healthz polling period (default 2s).
	HealthInterval time.Duration
	// RequestTimeout bounds one proxied attempt (default 60s: a cold
	// scene=gen: request may be simulating).
	RequestTimeout time.Duration
	// Log, when non-nil, receives health transitions and retry lines.
	Log *log.Logger
}

func (c *Config) normalize() {
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
}

// replica is one backend and its health state. healthy is read on every
// request without a lock; writes go through mu, which orders them against
// downs, the count of passive mark-downs.
type replica struct {
	url     string
	healthy atomic.Bool

	mu    sync.Mutex
	downs uint64
}

// markDown records a failed proxy attempt: the replica is down, and any
// health probe already in flight is too old to mark it up again.
func (rep *replica) markDown() {
	rep.mu.Lock()
	rep.downs++
	rep.healthy.Store(false)
	rep.mu.Unlock()
}

// downCount returns the number of passive mark-downs so far.
func (rep *replica) downCount() uint64 {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return rep.downs
}

// probed applies the verdict of a health probe that started when the
// mark-down count was downs, and reports whether the state changed. A
// passing probe is ignored if a request failed while it was in flight:
// the failure is newer evidence than the probe.
func (rep *replica) probed(ok bool, downs uint64) (changed bool) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if ok && rep.downs != downs {
		return false
	}
	return rep.healthy.Swap(ok) != ok
}

// Router is the photon-route HTTP handler.
type Router struct {
	cfg      Config
	replicas []*replica
	client   *http.Client
	start    time.Time

	reg      *obs.Registry
	requests *obs.Counter
	retries  *obs.Counter
	noneUp   *obs.Counter
	healthyG *obs.Gauge

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New constructs a Router over the configured replica set and starts its
// health loop. Call Close to stop the loop.
func New(cfg Config) (*Router, error) {
	cfg.normalize()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("route: at least one replica is required")
	}
	reg := obs.NewRegistry()
	r := &Router{
		cfg:    cfg,
		client: &http.Client{Timeout: cfg.RequestTimeout},
		start:  time.Now(),
		reg:    reg,
		requests: reg.Counter("photon_route_requests_total",
			"requests received by the router"),
		retries: reg.Counter("photon_route_retries_total",
			"attempts retried on the next replica after a transport error or 5xx"),
		noneUp: reg.Counter("photon_route_unroutable_total",
			"requests failed because every replica was down"),
		healthyG: reg.Gauge("photon_route_healthy_replicas",
			"replicas currently passing health checks"),
		stop: make(chan struct{}),
	}
	for _, u := range cfg.Replicas {
		rep := &replica{url: strings.TrimRight(u, "/")}
		// Optimistic start: replicas are routable until a health check or
		// a failed proxy attempt says otherwise, so a router booting
		// alongside its replicas does not shed its first requests.
		rep.healthy.Store(true)
		r.replicas = append(r.replicas, rep)
	}
	r.wg.Add(1)
	go r.healthLoop()
	return r, nil
}

// Close stops the health loop.
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

func (r *Router) healthLoop() {
	defer r.wg.Done()
	r.checkAll()
	t := time.NewTicker(r.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.checkAll()
		}
	}
}

func (r *Router) checkAll() {
	for _, rep := range r.replicas {
		downs := rep.downCount()
		ctx, cancel := context.WithTimeout(context.Background(), r.cfg.HealthInterval)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.url+"/healthz", nil)
		ok := false
		if err == nil {
			resp, err := r.client.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				ok = resp.StatusCode == http.StatusOK
			}
		}
		cancel()
		if rep.probed(ok, downs) && r.cfg.Log != nil {
			state := "DOWN"
			if ok {
				state = "UP"
			}
			r.cfg.Log.Printf("replica %s %s", rep.url, state)
		}
	}
}

// CanonicalKey reduces a /render query to the cache key its replica will
// use, so the router and the server agree on what "the same solution"
// means. Generator specs canonicalize through scenegen.Parse exactly as
// the server canonicalizes them; unparsable specs and other malformed
// queries fall back to the raw value — the backend will reject them, and
// consistent routing of garbage is still consistent.
func CanonicalKey(q map[string][]string) string {
	if vs := q["answer"]; len(vs) > 0 && vs[0] != "" {
		return "answer:" + vs[0]
	}
	if vs := q["scene"]; len(vs) > 0 && vs[0] != "" {
		name := vs[0]
		if scenegen.IsSpec(name) {
			if spec, err := scenegen.Parse(name); err == nil {
				name = spec.String()
			}
		}
		return "scene:" + name
	}
	return ""
}

// score is the rendezvous weight of (replica, key): FNV-1a over the
// NUL-separated pair (so distinct pairs never collide by concatenation),
// pushed through a splitmix64-style finalizer. The finalizer is load-
// bearing: raw FNV diffuses too weakly for rendezvous comparisons —
// with the replica URL hashed before the shared key suffix, certain URL
// pairs (observed with real ephemeral-port pairs) keep one replica's
// score above the other's for *every* key, collapsing the "distribute
// by key" property to "send everything to one replica".
func score(replicaURL, key string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, replicaURL)
	h.Write([]byte{0})
	io.WriteString(h, key)
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: a bijective avalanche so every
// input bit flips each output bit with ~1/2 probability.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Rank orders the replica URLs by descending rendezvous score for key,
// ties broken by URL so the order is total. Rank is a pure function of
// its arguments: every router instance computes the same preference
// order, and removing one URL from the set never reorders the others —
// the stability property the router's cache affinity rests on.
func Rank(key string, replicas []string) []string {
	out := append([]string(nil), replicas...)
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := score(out[i], key), score(out[j], key)
		if si != sj {
			return si > sj
		}
		return out[i] < out[j]
	})
	return out
}

// prefer returns the router's replicas in preference order for key:
// healthy replicas in rendezvous order, then unhealthy ones (last-resort
// attempts when everything is marked down).
func (r *Router) prefer(key string) []*replica {
	urls := make([]string, len(r.replicas))
	byURL := make(map[string]*replica, len(r.replicas))
	for i, rep := range r.replicas {
		urls[i] = rep.url
		byURL[rep.url] = rep
	}
	ranked := Rank(key, urls)
	out := make([]*replica, 0, len(ranked))
	for _, u := range ranked {
		if byURL[u].healthy.Load() {
			out = append(out, byURL[u])
		}
	}
	for _, u := range ranked {
		if !byURL[u].healthy.Load() {
			out = append(out, byURL[u])
		}
	}
	return out
}

// ServeHTTP routes /render and /scenes to replicas and answers /healthz
// and /metrics itself.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.requests.Inc()
	switch req.URL.Path {
	case "/healthz":
		r.handleHealthz(w)
		return
	case "/metrics":
		healthy := 0
		for _, rep := range r.replicas {
			if rep.healthy.Load() {
				healthy++
			}
		}
		r.healthyG.Set(float64(healthy))
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.reg.WritePrometheus(w)
		return
	}
	if req.Method != http.MethodGet && req.Method != http.MethodHead {
		http.Error(w, "only GET is supported", http.StatusMethodNotAllowed)
		return
	}
	r.proxy(w, req)
}

func (r *Router) handleHealthz(w http.ResponseWriter) {
	states := make(map[string]string, len(r.replicas))
	allDown := true
	for _, rep := range r.replicas {
		if rep.healthy.Load() {
			states[rep.url] = "up"
			allDown = false
		} else {
			states[rep.url] = "down"
		}
	}
	status := "ok"
	code := http.StatusOK
	if allDown {
		// The router itself is alive but can serve nothing; surface that
		// to whatever load balancer sits above it.
		status = "degraded"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\n  \"status\": %q,\n  \"uptime_ms\": %d,\n  \"replicas\": {", status,
		time.Since(r.start).Milliseconds())
	urls := make([]string, 0, len(states))
	for u := range states {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	for i, u := range urls {
		sep := ","
		if i == len(urls)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "\n    %q: %q%s", u, states[u], sep)
	}
	fmt.Fprint(w, "\n  }\n}\n")
}

// proxy forwards the request to the replicas in preference order for its
// canonical key. Transport errors and 5xx responses fall through to the
// next replica (and mark the replica unhealthy so the health loop's next
// pass can confirm); any other response — including 429 shed — streams
// back as-is.
func (r *Router) proxy(w http.ResponseWriter, req *http.Request) {
	key := CanonicalKey(req.URL.Query())
	var lastErr error
	for attempt, rep := range r.prefer(key) {
		if attempt > 0 {
			r.retries.Inc()
		}
		target := rep.url + req.URL.RequestURI()
		out, err := http.NewRequestWithContext(req.Context(), req.Method, target, nil)
		if err != nil {
			lastErr = err
			continue
		}
		resp, err := r.client.Do(out)
		if err != nil {
			lastErr = err
			rep.markDown()
			if r.cfg.Log != nil {
				r.cfg.Log.Printf("replica %s: %v (trying next)", rep.url, err)
			}
			continue
		}
		if resp.StatusCode >= 500 {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			lastErr = fmt.Errorf("replica %s: %s", rep.url, resp.Status)
			if r.cfg.Log != nil {
				r.cfg.Log.Printf("replica %s: %s (trying next)", rep.url, resp.Status)
			}
			continue
		}
		h := w.Header()
		for k, vs := range resp.Header {
			for _, v := range vs {
				h.Add(k, v)
			}
		}
		h.Set("X-Route-Replica", rep.url)
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		resp.Body.Close()
		return
	}
	r.noneUp.Inc()
	msg := "no replica available"
	if lastErr != nil {
		msg = fmt.Sprintf("no replica available: %v", lastErr)
	}
	http.Error(w, msg, http.StatusBadGateway)
}
