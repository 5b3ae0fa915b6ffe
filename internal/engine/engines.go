//photon:deterministic — engine adapters must not let wall clocks or map order steer results;
// photon-lint (nondeterm, floatreduce) polices this file — see DESIGN.md.

package engine

// The four Engine implementations: thin, uniform adapters over the
// strategy packages. Each maps the engine-independent Config onto its
// package's own configuration and wraps the result in a Solution.
//
// The adapters are also where run-level observability is recorded: every
// engine gets a "simulate" span and the uniform throughput metrics, and
// the distributed engines add the per-rank counts, load-imbalance ratio
// and communication volume derived from their Result telemetry. Interior
// phase spans (chunk traces, exchange rounds, merges) are recorded by the
// strategy packages themselves, which receive the same obs.Run through
// their configs.

import (
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/scenes"
	"repro/internal/shared"
)

// observe records the uniform post-run metrics every engine reports:
// photon throughput, tally counts, and — for the distributed engines —
// per-rank load and communication volume. A nil run makes this a no-op.
func observe(run *obs.Run, eng string, elapsed time.Duration, sol *Solution) {
	if run == nil {
		return
	}
	st := sol.Stats
	run.Set("photons", float64(st.PhotonsEmitted))
	if s := elapsed.Seconds(); s > 0 {
		run.Set("photons_per_sec", float64(st.PhotonsEmitted)/s)
	}
	run.Set("reflections", float64(st.Reflections))
	run.Set("bin_splits", float64(st.BinSplits))
	run.Set("mean_path_length", st.MeanPathLength())

	d := sol.Dist
	if d == nil {
		return
	}
	perRankPhotons := make([]float64, len(d.PerRank))
	perRankApplied := make([]float64, len(d.PerRank))
	for i, rs := range d.PerRank {
		perRankPhotons[i] = float64(rs.PhotonsTraced)
		perRankApplied[i] = float64(rs.TalliesApplied)
		run.SetIndexed("rank_photons", i, float64(rs.PhotonsTraced))
		run.SetIndexed("rank_tallies_applied", i, float64(rs.TalliesApplied))
		run.SetIndexed("rank_tallies_forwarded", i, float64(rs.TalliesForwarded))
	}
	// The balancer equalizes applied tallies (Run) or whatever the space
	// decomposition yields (GeoRun); max/mean of that is the chapter-6
	// load-imbalance statistic. Photon imbalance is reported alongside
	// because the two diverge exactly when forwarding is doing its job.
	run.Set("load_imbalance_tallies", obs.Imbalance(perRankApplied))
	run.Set("load_imbalance_photons", obs.Imbalance(perRankPhotons))
	run.Set("comm_messages", float64(d.Traffic.Messages))
	run.Set("comm_bytes", float64(d.Traffic.Bytes))
	sentMsgs, sentBytes := d.Traffic.SentByRank()
	recvMsgs, recvBytes := d.Traffic.RecvByRank()
	for i := range sentMsgs {
		run.SetIndexed("rank_msgs_sent", i, float64(sentMsgs[i]))
		run.SetIndexed("rank_bytes_sent", i, float64(sentBytes[i]))
		run.SetIndexed("rank_msgs_recv", i, float64(recvMsgs[i]))
		run.SetIndexed("rank_bytes_recv", i, float64(recvBytes[i]))
	}
	if eng == "geo" {
		run.Set("photon_forwards", float64(d.Forwards))
	}
}

type serialEngine struct{}

func (serialEngine) Name() string { return "serial" }

func (serialEngine) Run(scene *scenes.Scene, cfg Config) (*Solution, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// The clock is read only when observability is on: a disabled run
	// must cost zero clock reads and zero allocations (the obsgate
	// analyzer enforces this gate).
	span := cfg.Obs.StartSpan("simulate")
	var start time.Time
	if cfg.Obs.Enabled() {
		start = time.Now()
	}
	res, err := core.RunProgress(scene, cfg.Core, cfg.BatchSize, cfg.Progress)
	span.End()
	if err != nil {
		return nil, err
	}
	sol := &Solution{Result: res}
	if cfg.Obs.Enabled() {
		observe(cfg.Obs, "serial", time.Since(start), sol)
	}
	return sol, nil
}

type sharedEngine struct{}

func (sharedEngine) Name() string { return "shared" }

func (sharedEngine) Run(scene *scenes.Scene, cfg Config) (*Solution, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	span := cfg.Obs.StartSpan("simulate")
	var start time.Time
	if cfg.Obs.Enabled() {
		start = time.Now()
	}
	res, err := shared.Run(scene, shared.Config{
		Core:      cfg.Core,
		Workers:   cfg.workers(),
		ChunkSize: cfg.ChunkSize,
		BatchSize: cfg.BatchSize,
		Progress:  cfg.Progress,
		Obs:       cfg.Obs,
	})
	span.End()
	if err != nil {
		return nil, err
	}
	sol := &Solution{Result: res}
	if cfg.Obs.Enabled() {
		observe(cfg.Obs, "shared", time.Since(start), sol)
	}
	return sol, nil
}

type distEngine struct{}

func (distEngine) Name() string { return "distributed" }

func (distEngine) Run(scene *scenes.Scene, cfg Config) (*Solution, error) {
	return runDist("distributed", scene, cfg, dist.DefaultConfig, dist.Run)
}

type geoEngine struct{}

func (geoEngine) Name() string { return "geo" }

// Run passes an explicit Core.Sections through like the replicated
// adapter; dist.GeoRun refuses Sections > 1, since geo owns whole polygons.
func (geoEngine) Run(scene *scenes.Scene, cfg Config) (*Solution, error) {
	return runDist("geo", scene, cfg, dist.DefaultGeoConfig, dist.GeoRun)
}

// runDist is the body of both message-passing adapters: it maps cfg onto
// the engine's defaults (an explicit Core.Sections or BatchSize wins), runs
// the engine, and wraps its result with the distribution telemetry.
func runDist(name string, scene *scenes.Scene, cfg Config,
	defaults func(photons int64, ranks int) dist.Config,
	run func(*scenes.Scene, dist.Config) (*dist.Result, error),
) (*Solution, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	dcfg := defaults(cfg.Core.Photons, cfg.workers())
	dcfg.Core = cfg.Core
	dcfg.Balance = cfg.Balance
	if cfg.Core.Sections > 0 {
		dcfg.Sections = cfg.Core.Sections
	}
	if cfg.BatchSize > 0 {
		dcfg.BatchSize = cfg.BatchSize
	}
	dcfg.Progress = cfg.Progress
	dcfg.Obs = cfg.Obs
	span := cfg.Obs.StartSpan("simulate")
	var start time.Time
	if cfg.Obs.Enabled() {
		start = time.Now()
	}
	res, err := run(scene, dcfg)
	span.End()
	if err != nil {
		return nil, err
	}
	sol := &Solution{Result: res.Result, Dist: res}
	if cfg.Obs.Enabled() {
		observe(cfg.Obs, name, time.Since(start), sol)
	}
	return sol, nil
}
