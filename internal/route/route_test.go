package route

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRankDeterministicAndTotal: Rank is a pure function — same inputs,
// same order — and the order is total (every replica appears once).
func TestRankDeterministicAndTotal(t *testing.T) {
	replicas := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	first := Rank("scene:cornell-box", replicas)
	if len(first) != len(replicas) {
		t.Fatalf("Rank dropped replicas: %v", first)
	}
	seen := map[string]bool{}
	for _, u := range first {
		seen[u] = true
	}
	if len(seen) != len(replicas) {
		t.Fatalf("Rank duplicated replicas: %v", first)
	}
	for i := 0; i < 10; i++ {
		again := Rank("scene:cornell-box", replicas)
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("Rank not deterministic: %v vs %v", first, again)
			}
		}
	}
}

// TestRankStableUnderUnrelatedChange is the satellite requirement: a
// key's chosen replica must not move when an unrelated replica joins or
// leaves. Rendezvous hashing gives this per construction; the test pins
// it over many keys so a hash or sort regression cannot sneak in.
func TestRankStableUnderUnrelatedChange(t *testing.T) {
	replicas := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	moved := 0
	const keys = 500
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("scene:gen:office/seed=%d", i)
		before := Rank(key, replicas)[0]

		// Remove a replica the key did NOT map to: the winner must hold.
		pruned := make([]string, 0, 3)
		dropped := false
		for _, u := range replicas {
			if !dropped && u != before {
				dropped = true
				continue
			}
			pruned = append(pruned, u)
		}
		if got := Rank(key, pruned)[0]; got != before {
			t.Fatalf("key %q moved %s -> %s when an unrelated replica left", key, before, got)
		}

		// Add an unrelated replica: the key may move only to the new one.
		grown := append(append([]string(nil), replicas...), "http://e:1")
		if got := Rank(key, grown)[0]; got != before && got != "http://e:1" {
			t.Fatalf("key %q moved %s -> %s when an unrelated replica joined", key, before, got)
		}
		if Rank(key, grown)[0] != before {
			moved++
		}
	}
	// Joins should claim roughly 1/5 of keys, not most of them (a ring
	// with a bad hash can legally pass the per-key check while moving
	// nearly everything).
	if moved > keys/2 {
		t.Errorf("adding one of five replicas moved %d/%d keys", moved, keys)
	}
}

// TestRankNotDegenerateAcrossPortPairs pins the score finalizer.
// Replica URLs in a real farm differ only in a few port digits, and raw
// FNV over url+NUL+key diffuses that difference so weakly that some
// port pairs ranked one replica first for *every* key — the router
// degenerated to "send everything to one replica" (first seen as
// sceneRankedFirst exhausting 1000 candidate scenes). With the mix64
// finalizer every pair must split keys non-trivially.
func TestRankNotDegenerateAcrossPortPairs(t *testing.T) {
	const keys = 200
	for p1 := 32768; p1 < 33068; p1++ {
		for _, d := range []int{1, 2, 7} {
			u1 := fmt.Sprintf("http://127.0.0.1:%d", p1)
			u2 := fmt.Sprintf("http://127.0.0.1:%d", p1+d)
			wins := 0
			for i := 0; i < keys; i++ {
				if Rank(fmt.Sprintf("scene:probe-scene-%d", i), []string{u1, u2})[0] == u1 {
					wins++
				}
			}
			// A fair coin lands outside [40, 160] of 200 with
			// probability ~2e-17 per pair; the pre-finalizer bug sat at
			// exactly 0 or 200.
			if wins < keys/5 || wins > keys-keys/5 {
				t.Fatalf("pair %s / %s: %d of %d keys rank the first replica first", u1, u2, wins, keys)
			}
		}
	}
}

// TestRankSpreads: keys spread over the whole set, no starving replica.
func TestRankSpreads(t *testing.T) {
	replicas := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	counts := map[string]int{}
	const keys = 2000
	for i := 0; i < keys; i++ {
		counts[Rank(fmt.Sprintf("answer:file-%d.pbf", i), replicas)[0]]++
	}
	for _, u := range replicas {
		if counts[u] < keys/len(replicas)/2 {
			t.Errorf("replica %s owns only %d/%d keys", u, counts[u], keys)
		}
	}
}

// TestCanonicalKey: permuted and defaults-omitted spellings of one
// generator scene reduce to one key — the same canonicalization the
// server's cache uses — and answer requests key by file name.
func TestCanonicalKey(t *testing.T) {
	a := CanonicalKey(url.Values{"scene": {"gen:office/seed=7/rooms=2"}})
	b := CanonicalKey(url.Values{"scene": {"gen:office/rooms=2/seed=7"}})
	if a == "" || a != b {
		t.Errorf("permuted specs key differently: %q vs %q", a, b)
	}
	if got := CanonicalKey(url.Values{"answer": {"cornell.pbf"}}); got != "answer:cornell.pbf" {
		t.Errorf("answer key = %q", got)
	}
	if got := CanonicalKey(url.Values{"scene": {"quickstart"}}); got != "scene:quickstart" {
		t.Errorf("scene key = %q", got)
	}
	if got := CanonicalKey(url.Values{}); got != "" {
		t.Errorf("empty query key = %q", got)
	}
}

// backend spins up a stub replica that answers /render with its own name
// and counts the render requests it saw. A negative status passes health
// checks but severs the connection on /render — a replica that looks
// alive and fails mid-request, the case passive retry exists for.
func backend(t *testing.T, name string, status int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var renders atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			w.WriteHeader(http.StatusOK)
			io.WriteString(w, `{"status":"ok"}`)
		case "/render":
			renders.Add(1)
			if status < 0 {
				conn, _, err := w.(http.Hijacker).Hijack()
				if err == nil {
					conn.Close()
				}
				return
			}
			if status == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "1")
			}
			w.WriteHeader(status)
			io.WriteString(w, name)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(ts.Close)
	return ts, &renders
}

// sceneRankedFirst finds a scene parameter whose canonical key prefers
// `first` among urls, so retry tests are deterministic.
func sceneRankedFirst(t *testing.T, first string, urls []string) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		scene := fmt.Sprintf("probe-scene-%d", i)
		if Rank("scene:"+scene, urls)[0] == first {
			return scene
		}
	}
	t.Fatal("no scene found ranking the target replica first")
	return ""
}

func newRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// TestProxyRetriesPastDeadReplica: a replica that passes health checks
// but dies mid-request falls through to the next replica in rendezvous
// order, transparently, and is marked unhealthy for subsequent requests.
func TestProxyRetriesPastDeadReplica(t *testing.T) {
	live, liveN := backend(t, "live", http.StatusOK)
	flaky, flakyN := backend(t, "flaky", -1) // healthy-looking, severs /render

	urls := []string{flaky.URL, live.URL}
	scene := sceneRankedFirst(t, flaky.URL, urls)
	r := newRouter(t, Config{Replicas: urls, HealthInterval: time.Hour})
	ts := httptest.NewServer(r)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/render?scene=" + scene)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "live" {
		t.Fatalf("routed response = %d %q, want 200 from live replica", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Route-Replica"); got != live.URL {
		t.Errorf("X-Route-Replica = %q, want %q", got, live.URL)
	}
	// The http.Client may internally re-send a severed idempotent GET, so
	// pin ≥1 rather than an exact count on the flaky side.
	if flakyN.Load() < 1 || liveN.Load() != 1 {
		t.Errorf("render counts flaky=%d live=%d, want >=1 and 1", flakyN.Load(), liveN.Load())
	}
	if r.retries.Value() < 1 {
		t.Error("retry counter did not tick")
	}
	// Passive health: the failed attempt marked the replica down, so the
	// next request for its keys skips it without paying the error.
	before := flakyN.Load()
	resp, err = http.Get(ts.URL + "/render?scene=" + scene)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := flakyN.Load(); got != before {
		t.Errorf("marked-down replica was attempted again (%d -> %d renders)", before, got)
	}
}

// TestStaleProbeKeepsReplicaDown: a health probe issued before a request
// fails on a replica, and answered after it, must not mark the replica up
// again — the failure is the newer verdict.
func TestStaleProbeKeepsReplicaDown(t *testing.T) {
	probing := make(chan struct{}, 1)
	release := make(chan struct{})
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			select {
			case probing <- struct{}{}:
			default:
			}
			<-release
			w.WriteHeader(http.StatusOK)
			return
		}
		if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
			conn.Close()
		}
	}))
	t.Cleanup(flaky.Close)
	live, _ := backend(t, "live", http.StatusOK)

	urls := []string{flaky.URL, live.URL}
	scene := sceneRankedFirst(t, flaky.URL, urls)
	r := newRouter(t, Config{Replicas: urls, HealthInterval: time.Hour})
	releaseProbe := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseProbe) // before r.Close and flaky.Close, which wait for the probe
	select {
	case <-probing: // the health loop's first probe of flaky is in flight
	case <-time.After(10 * time.Second):
		t.Fatal("the router never probed the replica")
	}
	ts := httptest.NewServer(r)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/render?scene=" + scene)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "live" {
		t.Fatalf("routed response = %d %q, want the live replica's", resp.StatusCode, body)
	}
	releaseProbe()
	r.Close() // returns once the health loop has finished its pass
	if r.replicas[0].healthy.Load() {
		t.Error("a probe issued before the failure marked the replica up again")
	}
}

// TestProxyRetriesPast5xx: a replica answering 500 falls through to the
// next one.
func TestProxyRetriesPast5xx(t *testing.T) {
	broken, brokenN := backend(t, "broken", http.StatusInternalServerError)
	live, liveN := backend(t, "live", http.StatusOK)
	urls := []string{broken.URL, live.URL}
	scene := sceneRankedFirst(t, broken.URL, urls)
	r := newRouter(t, Config{Replicas: urls, HealthInterval: time.Hour})
	ts := httptest.NewServer(r)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/render?scene=" + scene)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "live" {
		t.Fatalf("routed response = %d %q, want 200 from live", resp.StatusCode, body)
	}
	if brokenN.Load() != 1 || liveN.Load() != 1 {
		t.Errorf("render counts broken=%d live=%d, want 1 and 1", brokenN.Load(), liveN.Load())
	}
}

// TestShedPropagatesWithoutRetry: a 429 from the preferred replica goes
// straight back to the client — retrying a shed elsewhere would defeat
// cache affinity exactly when the farm is overloaded.
func TestShedPropagatesWithoutRetry(t *testing.T) {
	shedding, shedN := backend(t, "shedding", http.StatusTooManyRequests)
	other, otherN := backend(t, "other", http.StatusOK)
	urls := []string{shedding.URL, other.URL}
	scene := sceneRankedFirst(t, shedding.URL, urls)
	r := newRouter(t, Config{Replicas: urls, HealthInterval: time.Hour})
	ts := httptest.NewServer(r)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/render?scene=" + scene)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed response = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 lost its Retry-After header through the router")
	}
	if shedN.Load() != 1 || otherN.Load() != 0 {
		t.Errorf("render counts shedding=%d other=%d, want 1 and 0", shedN.Load(), otherN.Load())
	}
}

// TestAllReplicasDown: every attempt fails → 502 from the router, and
// /healthz reports degraded with a non-200 so an upstream LB can react.
func TestAllReplicasDown(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	r := newRouter(t, Config{Replicas: []string{deadURL}, HealthInterval: time.Hour})
	ts := httptest.NewServer(r)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/render?scene=quickstart")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("all-down render = %d, want 502", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("all-down /healthz = %d, want 503: %s", resp.StatusCode, body)
	}
}

// TestRouterMetrics: the router's own /metrics surface is present and
// parseable enough to scrape (content type + the request counter).
func TestRouterMetrics(t *testing.T) {
	live, _ := backend(t, "live", http.StatusOK)
	r := newRouter(t, Config{Replicas: []string{live.URL}, HealthInterval: time.Hour})
	ts := httptest.NewServer(r)
	t.Cleanup(ts.Close)
	http.Get(ts.URL + "/render?scene=quickstart")

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	for _, want := range []string{"photon_route_requests_total", "photon_route_healthy_replicas"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}
