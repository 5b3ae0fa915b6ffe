package main

// An in-process render farm: photon-serve replicas, optionally behind a
// photon-route router, each behind httptest.NewServer so every hop is a
// real loopback TCP connection. The farm is built from the program's
// public constructors (server.New, route.New) and nothing else.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"time"

	"repro/internal/route"
	"repro/internal/server"
)

// spanParam is the query parameter a traced request carries its span id
// in. The server ignores unknown parameters and the router forwards the
// query string verbatim, so the id crosses both hops without touching
// either program.
const spanParam = "benchspan"

// topology is the shape of a farm.
type topology struct {
	Replicas int  // photon-serve instances
	Routed   bool // behind a photon-route router
	// Cache is server.Config.CacheSize for every replica (0 = default).
	Cache int
	// SimPhotons is the fill budget of every replica.
	SimPhotons int64
}

// farm is a running topology.
type farm struct {
	// entry is the base URL clients talk to: the router's, or the single
	// replica's.
	entry    string
	replicas []*server.Server
	// replicaURLs[i] is replicas[i]'s own base URL (bypassing any router).
	replicaURLs []string
	router      *route.Router
	listeners   []*httptest.Server
	client      *http.Client
}

// spanned wraps h so that each request it serves is a span named name,
// child of the span id the request carries; the id is rewritten so hops
// further down nest under this one. With a nil tracer h is returned as is.
func spanned(tr *tracer, name string, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		parent, _ := strconv.Atoi(q.Get(spanParam))
		id := tr.start(name, parent)
		defer tr.end(id)
		q.Set(spanParam, strconv.Itoa(id))
		r2 := r.Clone(r.Context())
		r2.URL.RawQuery = q.Encode()
		h.ServeHTTP(w, r2)
	})
}

// newFarm starts the topology. conns bounds the client's connections to
// the entry point.
func newFarm(tr *tracer, top topology, conns int) (*farm, error) {
	if top.Replicas < 1 || (top.Replicas > 1 && !top.Routed) {
		return nil, fmt.Errorf("bench: topology %+v has no single entry point", top)
	}
	f := &farm{}
	for i := 0; i < top.Replicas; i++ {
		s := server.New(server.Config{CacheSize: top.Cache, SimPhotons: top.SimPhotons})
		ln := httptest.NewServer(spanned(tr, "server.handler", s))
		f.replicas = append(f.replicas, s)
		f.replicaURLs = append(f.replicaURLs, ln.URL)
		f.listeners = append(f.listeners, ln)
	}
	f.entry = f.replicaURLs[0]
	if top.Routed {
		r, err := route.New(route.Config{Replicas: f.replicaURLs})
		if err != nil {
			f.close()
			return nil, err
		}
		f.router = r
		ln := httptest.NewServer(spanned(tr, "route.handler", r))
		f.listeners = append(f.listeners, ln)
		f.entry = ln.URL
	}
	f.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		Timeout:   2 * time.Minute,
	}
	return f, nil
}

// close stops every listener and the router's health loop, and waits for
// them.
func (f *farm) close() {
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	// Router first: its listener is last in the list and its transport
	// holds connections to the replicas.
	for i := len(f.listeners) - 1; i >= 0; i-- {
		f.listeners[i].Close()
	}
	if f.router != nil {
		f.router.Close()
	}
}

// counters sums the replicas' exact cache and admission counters.
func (f *farm) counters() map[string]int64 {
	sum := make(map[string]int64)
	for _, s := range f.replicas {
		for k, v := range s.MetricsSnapshot() {
			sum[k] += v
		}
	}
	return sum
}

// shot is one camera position in one scene.
type shot struct {
	Scene               string
	Eye, LookAt         [3]float64
	Quality             string // "probe" or "full"
	W, H, Samples       int
	sceneIdx, cameraIdx int
}

// path is the /render request for v.
func (v shot) path() string {
	q := url.Values{}
	q.Set("scene", v.Scene)
	q.Set("eye", vec3String(v.Eye))
	q.Set("lookat", vec3String(v.LookAt))
	q.Set("w", strconv.Itoa(v.W))
	q.Set("h", strconv.Itoa(v.H))
	q.Set("quality", v.Quality)
	if v.Quality == "full" {
		q.Set("samples", strconv.Itoa(v.Samples))
	}
	return "/render?" + q.Encode()
}

func vec3String(v [3]float64) string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	return f(v[0]) + "," + f(v[1]) + "," + f(v[2])
}
