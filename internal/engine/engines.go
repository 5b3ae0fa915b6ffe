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

// observed is the body every adapter shares: it validates cfg, runs trace
// under a "simulate" span and records the uniform metrics. The clock is
// read only when observability is on: a disabled run must cost zero clock
// reads and zero allocations (the obsgate analyzer enforces this gate).
func observed(name string, cfg Config, trace func() (*Solution, error)) (*Solution, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	span := cfg.Obs.StartSpan("simulate")
	var start time.Time
	if cfg.Obs.Enabled() {
		start = time.Now()
	}
	sol, err := trace()
	span.End()
	if err != nil {
		return nil, err
	}
	if cfg.Obs.Enabled() {
		observe(cfg.Obs, name, time.Since(start), sol)
	}
	return sol, nil
}

type serialEngine struct{}

func (serialEngine) Name() string { return "serial" }

func (e serialEngine) Run(scene *scenes.Scene, cfg Config) (*Solution, error) {
	return observed(e.Name(), cfg, func() (*Solution, error) {
		res, err := core.RunProgress(scene, cfg.Core, cfg.Progress)
		return &Solution{Result: res}, err
	})
}

type sharedEngine struct{}

func (sharedEngine) Name() string { return "shared" }

func (e sharedEngine) Run(scene *scenes.Scene, cfg Config) (*Solution, error) {
	return observed(e.Name(), cfg, func() (*Solution, error) {
		res, err := shared.Run(scene, shared.Config{
			Core:     cfg.Core,
			Workers:  cfg.workers(),
			Progress: cfg.Progress,
			Obs:      cfg.Obs,
		})
		return &Solution{Result: res}, err
	})
}

type distEngine struct{}

func (distEngine) Name() string { return "distributed" }

func (e distEngine) Run(scene *scenes.Scene, cfg Config) (*Solution, error) {
	return runDist(e.Name(), scene, cfg, dist.Run)
}

type geoEngine struct{}

func (geoEngine) Name() string { return "geo" }

// Run passes an explicit Core.Sections through like the replicated
// adapter; dist.GeoRun refuses Sections > 1, since geo owns whole polygons.
func (e geoEngine) Run(scene *scenes.Scene, cfg Config) (*Solution, error) {
	return runDist(e.Name(), scene, cfg, dist.GeoRun)
}

// runDist is the body of both message-passing adapters. A zero BatchSize
// or Core.Sections passes through as zero: run fills in its own engine's
// defaults.
func runDist(name string, scene *scenes.Scene, cfg Config,
	run func(*scenes.Scene, dist.Config) (*dist.Result, error),
) (*Solution, error) {
	return observed(name, cfg, func() (*Solution, error) {
		res, err := run(scene, dist.Config{
			Core:      cfg.Core,
			Ranks:     cfg.workers(),
			BatchSize: cfg.BatchSize,
			Balance:   cfg.Balance,
			Progress:  cfg.Progress,
			Obs:       cfg.Obs,
		})
		if err != nil {
			return nil, err
		}
		return &Solution{Result: res.Result, Dist: res}, nil
	})
}
