package main

// Per-layer metrics of a traced run. Each is measured from outside the
// layer: a span around a call into one of its exported functions (a single
// call, or a timed loop of calls when one call is too short to time), an
// exact counter the program already reports, or the obs.Run report an
// engine fills when the caller attaches one. The README lists, for every
// metric here, the end-to-end metric it should move and on which workload.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/answer"
	"repro/internal/benchutil"
	"repro/internal/bintree"
	"repro/internal/core"
	"repro/internal/emitter"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/scenes"
	"repro/internal/vecmath"
	"repro/internal/view"
)

// microPhotons bounds the direct core and bintree measurements, which trace
// photons one workload's solve phase has already traced at full size.
const microPhotons = 20000

// loopTime is how long a timed loop runs; the smoke test shortens it.
var loopTime = 150 * time.Millisecond

// timedLoop runs body in batches inside one span until loopTime has passed,
// and returns the seconds per call.
func timedLoop(tr *tracer, name string, parent, batch int, body func()) float64 {
	id := tr.start(name, parent)
	start := time.Now()
	calls := 0
	for time.Since(start) < loopTime {
		for i := 0; i < batch; i++ {
			body()
		}
		calls += batch
	}
	elapsed := time.Since(start).Seconds()
	tr.end(id)
	return elapsed / float64(calls)
}

// sheet is the per-layer metric set being filled in.
type sheet map[string]metric

func (m sheet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// obsShare is the part of an engine run its obs report recorded under path.
func obsShare(rep obs.Report, path string) float64 {
	var part, whole float64
	for _, s := range rep.Spans {
		switch s.Path {
		case path:
			part = s.TotalMs
		case "simulate":
			whole = s.TotalMs
		}
	}
	if whole == 0 {
		return 0
	}
	return part / whole
}

// photonCosts is what the stage-one layers cost per call and how many calls
// a photon makes: the inputs of the stage-one ledger.
type photonCosts struct {
	intersect, emit, scatter, add float64 // seconds per call
	rays, interactions, tallies   float64 // calls per photon
}

// solveLayers measures the stage-one modules on the solve scene: geom,
// emitter, brdf, core, bintree, then shared, dist, mpi and answer from the
// window's last repetition of the matrix.
func solveLayers(tr *tracer, root int, m sheet, w workload, sc *scenes.Scene, win *window) (photonCosts, error) {
	var c photonCosts
	last := win.reps[len(win.reps)-1]
	serial := last.Sols[cfgSerial]
	photons := float64(serial.Stats.PhotonsEmitted)

	// geom
	tr.do("geom.octree_build", root, func() { geom.BuildOctree(sc.Geom.Patches, geom.DefaultOctreeConfig()) })
	nodes, _, depth := sc.Geom.Octree().Stats()
	m.set("geom.octree_nodes", float64(nodes), "count")
	m.set("geom.octree_depth", float64(depth), "count")
	rays := benchutil.Rays(sc.Geom, 1024)
	var hit geom.Hit
	next := 0
	c.intersect = timedLoop(tr, "geom.intersect", root, 4096, func() {
		sc.Geom.Intersect(rays[next&1023], &hit)
		next++
	})
	m.set("geom.intersect_mrays_per_s", 1/c.intersect/1e6, "Mrays/s")
	const packetWidth = 64
	var packet geom.RayPacket
	var scratch geom.PacketScratch
	hits, found := make([]geom.Hit, packetWidth), make([]bool, packetWidth)
	perPacket := timedLoop(tr, "geom.packet", root, 64, func() {
		packet.Reset()
		for i := 0; i < packetWidth; i++ {
			packet.Append(rays[(next+i)&1023])
		}
		next += packetWidth
		sc.Geom.IntersectPacket(&packet, hits, found, &scratch)
	})
	m.set("geom.packet_mrays_per_s", packetWidth/perPacket/1e6, "Mrays/s")

	// emitter / brdf
	em, err := emitter.New(sc.Geom, w.Photons)
	if err != nil {
		return c, err
	}
	stream := rng.New(solveSeed)
	c.emit = timedLoop(tr, "emitter.generate", root, 4096, func() { em.Generate(stream) })
	m.set("emitter.generate_ns", c.emit*1e9, "ns")
	normal := vecmath.V(0, 0, 1)
	basis, incoming := vecmath.NewONB(normal), vecmath.V(0.3, 0.2, -1).Norm()
	mat := 0
	c.scatter = timedLoop(tr, "brdf.scatter", root, 4096, func() {
		sc.Materials[mat%len(sc.Materials)].Scatter(stream, incoming, normal, basis, 0)
		mat++
	})
	m.set("brdf.scatter_ns", c.scatter*1e9, "ns")

	// core: the per-photon path and the wavefront path, directly.
	cc := core.DefaultConfig(min(w.Photons, microPhotons))
	cc.Seed = solveSeed
	took := tr.do("core.run", root, func() { _, err = core.Run(sc, cc) })
	if err != nil {
		return c, err
	}
	m.set("core.trace_photons_per_s", float64(cc.Photons)/took.Seconds(), "photons/s")
	took = tr.do("core.run_wavefront", root, func() { _, err = core.RunWavefront(sc, cc, 64) })
	if err != nil {
		return c, err
	}
	m.set("core.wave_photons_per_s", float64(cc.Photons)/took.Seconds(), "photons/s")
	c.rays = float64(serial.Stats.TotalPathLength+serial.Stats.Escapes) / photons
	c.interactions = float64(serial.Stats.TotalPathLength) / photons
	c.tallies = float64(serial.Stats.PhotonsEmitted+serial.Stats.Reflections) / photons
	m.set("core.rays_per_photon", c.rays, "count")
	m.set("core.tallies_per_photon", c.tallies, "count")

	// bintree: replay a captured tally stream into an empty forest, then
	// query the forest it built at the same points.
	sim, err := core.NewSimulator(sc, cc)
	if err != nil {
		return c, err
	}
	var tallies []core.Tally
	var unused core.Stats
	for i := int64(0); i < cc.Photons; i++ {
		sim.TracePhotonFunc(core.PhotonStream(cc.Seed, i), &unused, func(t core.Tally) { tallies = append(tallies, t) })
	}
	forest := bintree.NewForest(len(sc.Geom.Patches), bintree.DefaultConfig())
	took = tr.do("bintree.add", root, func() {
		for _, t := range tallies {
			forest.Add(int(t.Patch), t.Point, t.Power)
		}
	})
	c.add = took.Seconds() / float64(len(tallies))
	m.set("bintree.add_ns", c.add*1e9, "ns")
	took = tr.do("bintree.radiance", root, func() {
		for _, t := range tallies {
			forest.Radiance(int(t.Patch), t.Point, sc.Geom.Patches[t.Patch].Area())
		}
	})
	m.set("bintree.radiance_ns", took.Seconds()/float64(len(tallies))*1e9, "ns")
	m.set("bintree.splits", float64(serial.Stats.BinSplits), "count")
	m.set("bintree.leaves", float64(serial.Forest.TotalLeaves()), "count")
	m.set("bintree.forest_bytes", float64(serial.Forest.MemoryBytes()), "bytes")

	// shared: speed-up over one worker, and the merge baton's share of the
	// run, from the engine's own obs report.
	w1, w2 := win.rates(cfgSharedW1, w.Photons), win.rates(cfgShared, w.Photons)
	speedup := make([]float64, len(w1))
	for k := range speedup {
		speedup[k] = w2[k] / w1[k]
	}
	m.set("shared.speedup_w2", median(speedup), "ratio")
	m.set("shared.merge_share", obsShare(last.Obs[cfgShared], "simulate/merge"), "ratio")

	// dist / mpi: exact telemetry of the last repetition, phase shares
	// from rank 0's obs report, and what the TCP transport costs.
	d := last.Sols[cfgDist].Dist
	m.set("dist.rounds", float64(d.PerRank[0].Batches), "count")
	m.set("dist.msgs", float64(d.Traffic.Messages), "count")
	m.set("dist.bytes", float64(d.Traffic.Bytes), "bytes")
	applied := make([]float64, len(d.PerRank))
	for i, rs := range d.PerRank {
		applied[i] = float64(rs.TalliesApplied)
	}
	m.set("dist.load_imbalance", obs.Imbalance(applied), "ratio")
	m.set("dist.geo_forwards", float64(last.Sols[cfgGeo].Dist.Forwards), "count")
	m.set("dist.exchange_share", obsShare(last.Obs[cfgDist], "simulate/round/exchange"), "ratio")
	m.set("dist.apply_share", obsShare(last.Obs[cfgDist], "simulate/round/apply"), "ratio")
	overhead := make([]float64, len(win.reps))
	for k, rep := range win.reps {
		overhead[k] = rep.Seconds[cfgDistTCP]/rep.Seconds[cfgDist] - 1
	}
	m.set("mpi.tcp_overhead_share", median(overhead), "ratio")

	// answer: round-trip the shared solution through the file format.
	var file bytes.Buffer
	sol := answer.FromResult(last.Sols[cfgShared].Result)
	tr.do("answer.save", root, func() { err = sol.Save(&file) })
	if err != nil {
		return c, err
	}
	m.set("answer.bytes", float64(file.Len()), "bytes")
	tr.do("answer.load", root, func() { _, err = answer.Load(bytes.NewReader(file.Bytes())) })
	return c, err
}

// serveLayers measures what the reference frames of the check did not
// already: tone mapping, the server's handler with no socket under it, and
// the router's ranking.
func serveLayers(tr *tracer, root int, m sheet, w workload, in *inputs, f *farm, ref *reference) {
	rad := make([]bintree.RGB, w.FullW*w.FullH)
	for i := range rad {
		v := float64(i%w.FullW) / float64(w.FullW)
		rad[i] = bintree.RGB{R: v, G: 1 - v, B: 0.5}
	}
	tr.do("view.tonemap", root, func() { view.Tonemap(rad, w.FullW, w.FullH, 0, 2.2) })

	// The handler, for every warm shot the window requested, on the replica
	// the router would pick. What is left of a handler's time after the
	// direct render and encode of the same shot is the server's own
	// overhead: parse, admit, cache lookup, write.
	homeOf := func(s shot) http.Handler {
		u, _ := url.Parse(s.path())
		first := route.Rank(route.CanonicalKey(u.Query()), f.replicaURLs)[0]
		for i, ru := range f.replicaURLs {
			if ru == first {
				return f.replicas[i]
			}
		}
		return f.replicas[0]
	}
	var handlerProbe, handlerFull, overheadMs, renderMs []float64
	for si, s := range in.shots {
		rendered, ok := ref.renderS[si]
		if !ok || s.sceneIdx >= w.Warm {
			continue
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, s.path(), nil)
		home := homeOf(s)
		took := tr.do("server.handler_"+s.Quality, root, func() { home.ServeHTTP(rec, req) }).Seconds()
		if s.Quality == "full" {
			handlerFull = append(handlerFull, took*1e3)
			continue
		}
		handlerProbe = append(handlerProbe, took*1e3)
		overheadMs = append(overheadMs, (took-rendered-ref.encodeS[si])*1e3)
		if ms, err := strconv.Atoi(rec.Header().Get("X-Render-Ms")); err == nil {
			renderMs = append(renderMs, float64(ms))
		}
	}
	m.set("server.handler_probe_ms", median(handlerProbe), "ms")
	m.set("server.handler_full_ms", median(handlerFull), "ms")
	m.set("server.overhead_ms", median(overheadMs), "ms")
	m.set("server.render_ms", median(renderMs), "ms")

	perRank := timedLoop(tr, "route.rank", root, 256, func() { route.Rank("scene:"+in.scenes[0], f.replicaURLs) })
	m.set("route.rank_ns", perRank*1e9, "ns")
}

// requestLayers splits the window's requests by their spans: a request's
// self time is client and transport, the router's is its hop, and the
// handler span of a miss is the fill.
func requestLayers(m sheet, spans []span, self map[int]time.Duration, win *window) {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	ancestor := func(s span, found func(span) bool) span {
		for s.Parent != 0 && !found(s) {
			s = byID[s.Parent]
		}
		return s
	}
	isPhase := func(s span) bool { return strings.HasPrefix(s.Name, "bench.") }
	isRequest := func(s span) bool { return s.Name == "loadgen.request" }
	missed := make(map[int]bool) // request spans of the walk's misses
	for _, s := range win.walk {
		if s.ok() && !s.Hit {
			missed[s.Span] = true
		}
	}
	var transport, hop, fills []float64
	for _, s := range spans {
		inProbe := ancestor(s, isPhase).Name == "bench.probe"
		switch {
		case s.Name == "loadgen.request" && inProbe:
			transport = append(transport, self[s.ID].Seconds()*1e3)
		case s.Name == "route.handler" && inProbe:
			hop = append(hop, self[s.ID].Seconds()*1e3)
		case s.Name == "server.handler" && missed[ancestor(s, isRequest).ID]:
			fills = append(fills, s.duration().Seconds())
		}
	}
	m.set("http.transport_ms", median(transport), "ms")
	m.set("route.hop_ms", median(hop), "ms")
	m.set("server.fill_s", median(fills), "s")
}

func perLayer(res *runResult, tr *tracer, w workload, in *inputs, env *environment, win *window, ref *reference) error {
	m := make(sheet)
	root := tr.start("bench.layers", 0)
	costs, err := solveLayers(tr, root, m, w, env.scene, win)
	if err != nil {
		return err
	}
	serveLayers(tr, root, m, w, in, env.farm, ref)
	tr.end(root)

	// What one span costs, for the overhead floor below.
	scratch := newTracer("overhead")
	perSpan := timedLoop(nil, "", 0, 1024, func() { scratch.end(scratch.start("x", 0)) })

	// Medians of span self times, by span name.
	spans := tr.finished()
	selfOf := selfTimes(spans)
	self := selfByName(spans, selfOf)
	for name, spanName := range map[string]string{
		"scenes.build_ms":         "scenes.build",
		"geom.octree_build_ms":    "geom.octree_build",
		"answer.save_ms":          "answer.save",
		"answer.load_ms":          "answer.load",
		"view.render_ms":          "view.render",
		"view.tonemap_ms":         "view.tonemap",
		"view.png_encode_ms":      "view.png_encode.probe",
		"view.png_encode_full_ms": "view.png_encode.full",
		"probe.bake_ms":           "probe.bake",
		"probe.render_ms":         "probe.render",
	} {
		m.set(name, median(self[spanName])*1e3, "ms")
	}
	mrays := 0.0
	if r := median(self["view.render"]); r > 0 {
		mrays = float64(w.FullW*w.FullH) / r / 1e6
	}
	m.set("view.mrays_per_s", mrays, "Mrays/s")
	m.set("probe.grid_bytes", float64(ref.grids[0].MemoryBytes()), "bytes")
	requestLayers(m, spans, selfOf, win)
	for _, k := range []string{"cache_hits", "cache_misses", "cache_evictions", "shed"} {
		m.set("server."+k, float64(win.counters[k]), "count")
	}

	// loadgen (this benchmark's driver) and the process.
	sent, okCount := 0, 0
	for _, phase := range [][]sample{win.walk, win.probe, win.full} {
		for _, s := range phase {
			sent++
			if s.ok() {
				okCount++
			}
		}
	}
	m.set("loadgen.sent", float64(sent), "count")
	m.set("loadgen.ok", float64(okCount), "count")
	m.set("loadgen.failed", float64(sent-okCount), "count")
	probe := summarize(win.probe, 0.99)
	m["loadgen.lateness_tail_ms"] = metric{Value: probe.Late, Unit: "ms", N: len(win.probe),
		Note: "probe phase, sent minus due, at p" + strconv.FormatFloat(probe.LateQ*100, 'g', -1, 64)}
	// The probe phase's p99, where the sample supports it (serve-warm).
	if supportedTail(probe.N) < 0.99 {
		probe.Tail = 0
	}
	m["loadgen.probe_p99_ms"] = metric{Value: probe.Tail, Unit: "ms", N: probe.N}
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // on failure the metric reads 0
	m.set("proc.peak_rss_mb", float64(ru.Maxrss)/1024, "MB")

	// The ledger. walk_share is the octree walk's part of a serial photon;
	// the two unattributed shares are what the separately measured layers
	// leave unexplained of a serial photon and of a served probe frame.
	// Medians of layers measured apart need not add up, so either share can
	// come out a little below zero.
	e2e := res.Metrics
	perPhoton := 1 / e2e["solve_photons_per_s.serial"].Value
	walk := costs.rays * costs.intersect
	m.set("geom.walk_share", walk/perPhoton, "ratio")
	explained := costs.emit + walk + costs.interactions*costs.scatter + costs.tallies*costs.add
	m.set("trace.solve_unattributed_share", 1-explained/perPhoton, "ratio")
	owners := m["http.transport_ms"].Value + m["route.hop_ms"].Value + m["server.overhead_ms"].Value +
		m["probe.render_ms"].Value + m["view.png_encode_ms"].Value
	m.set("trace.unattributed_share", 1-owners/e2e["served_probe_p50_ms"].Value, "ratio")
	m.set("trace.overhead_share", float64(len(spans))*perSpan/win.seconds, "ratio")

	// A traced run reports the per-layer set.
	res.UnderTrace, res.Metrics = e2e, m
	return nil
}
