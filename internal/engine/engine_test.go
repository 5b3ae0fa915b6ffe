package engine

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenes"
)

func quickScene(t testing.TB) *scenes.Scene {
	t.Helper()
	s, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestByName(t *testing.T) {
	for _, e := range All() {
		got, err := ByName(e.Name())
		if err != nil {
			t.Fatalf("ByName(%q): %v", e.Name(), err)
		}
		if got.Name() != e.Name() {
			t.Fatalf("ByName(%q) returned %q", e.Name(), got.Name())
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("unknown engine name accepted")
	}
}

func TestEveryEngineRunsAndConserves(t *testing.T) {
	s := quickScene(t)
	for _, e := range All() {
		sol, err := e.Run(s, Config{Core: core.DefaultConfig(4000), Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if sol.Stats.PhotonsEmitted != 4000 {
			t.Fatalf("%s emitted %d, want 4000", e.Name(), sol.Stats.PhotonsEmitted)
		}
		want := sol.Stats.PhotonsEmitted + sol.Stats.Reflections
		if got := sol.Forest.TotalPhotons(); got != want {
			t.Fatalf("%s forest holds %d tallies, want %d", e.Name(), got, want)
		}
	}
}

func TestDistEnginesCarryTelemetry(t *testing.T) {
	s := quickScene(t)
	for _, e := range []Engine{Distributed, Geo} {
		sol, err := e.Run(s, Config{Core: core.DefaultConfig(3000), Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if sol.Dist == nil {
			t.Fatalf("%s returned no dist telemetry", e.Name())
		}
		if len(sol.Dist.PerRank) != 2 {
			t.Fatalf("%s PerRank has %d entries, want 2", e.Name(), len(sol.Dist.PerRank))
		}
	}
	sol, err := Serial.Run(s, Config{Core: core.DefaultConfig(1000)})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Dist != nil {
		t.Fatal("serial engine returned dist telemetry")
	}
}

func TestProgressReportingAllEngines(t *testing.T) {
	s := quickScene(t)
	for _, e := range All() {
		var mu sync.Mutex
		var calls []int64
		cfg := Config{Core: core.DefaultConfig(5000), Workers: 2, BatchSize: 500}
		cfg.Progress = func(done, total int64) {
			mu.Lock()
			defer mu.Unlock()
			if total != 5000 {
				t.Errorf("%s: progress total %d, want 5000", e.Name(), total)
			}
			calls = append(calls, done)
		}
		if _, err := e.Run(s, cfg); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if len(calls) == 0 {
			t.Fatalf("%s reported no progress", e.Name())
		}
		if final := calls[len(calls)-1]; final != 5000 {
			t.Fatalf("%s: final progress %d, want 5000", e.Name(), final)
		}
		// The documented contract is strict monotonicity: every callback
		// reports more photons finished than the one before — no
		// regressions and no duplicate reports.
		for i := 1; i < len(calls); i++ {
			if calls[i] <= calls[i-1] {
				t.Fatalf("%s: progress not strictly monotone at call %d: %v", e.Name(), i, calls)
			}
		}
		for i, done := range calls {
			if done < 1 || done > 5000 {
				t.Fatalf("%s: progress call %d out of range: %d", e.Name(), i, done)
			}
		}
	}
}

// TestInstrumentationPreservesConformance pins the observability
// contract: attaching an obs.Run observes the run but never reorders it.
// Every engine must produce a bit-identical forest (Fingerprint) and
// identical trajectory statistics with and without instrumentation — and
// the instrumented run must actually have collected the promised spans
// and per-rank series.
func TestInstrumentationPreservesConformance(t *testing.T) {
	s := quickScene(t)
	for _, e := range All() {
		base := Config{Core: core.DefaultConfig(4000), Workers: 3, BatchSize: 500}

		plain, err := e.Run(s, base)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		instrumented := base
		instrumented.Obs = obs.NewRun()
		wired, err := e.Run(s, instrumented)
		if err != nil {
			t.Fatalf("%s instrumented: %v", e.Name(), err)
		}

		if a, b := plain.Forest.Fingerprint(), wired.Forest.Fingerprint(); a != b {
			t.Errorf("%s: instrumentation changed the forest: %x vs %x", e.Name(), a, b)
		}
		if plain.Stats != wired.Stats {
			t.Errorf("%s: instrumentation changed the stats:\n  plain: %+v\n  wired: %+v",
				e.Name(), plain.Stats, wired.Stats)
		}

		rep := instrumented.Obs.Report()
		if rep.Metrics["photons"] != 4000 {
			t.Errorf("%s: photons metric = %v, want 4000", e.Name(), rep.Metrics["photons"])
		}
		if rep.Metrics["photons_per_sec"] <= 0 {
			t.Errorf("%s: photons_per_sec = %v", e.Name(), rep.Metrics["photons_per_sec"])
		}
		paths := make(map[string]bool, len(rep.Spans))
		for _, sp := range rep.Spans {
			paths[sp.Path] = true
		}
		if !paths["simulate"] {
			t.Errorf("%s: no simulate span: %+v", e.Name(), rep.Spans)
		}
		switch e.Name() {
		case "shared":
			if !paths["simulate/chunk"] || !paths["simulate/merge"] {
				t.Errorf("shared: missing chunk/merge spans: %+v", rep.Spans)
			}
			if len(rep.Series["worker_photons"]) == 0 {
				t.Errorf("shared: no worker_photons series")
			}
		case "distributed", "geo":
			for _, p := range []string{"simulate/round/trace", "simulate/round/exchange", "simulate/round/apply", "simulate/gather"} {
				if !paths[p] {
					t.Errorf("%s: missing span %s: %+v", e.Name(), p, rep.Spans)
				}
			}
			if got := len(rep.Series["rank_photons"]); got != 3 {
				t.Errorf("%s: rank_photons has %d entries, want 3", e.Name(), got)
			}
			if got := len(rep.Series["rank_wall_ms"]); got != 3 {
				t.Errorf("%s: rank_wall_ms has %d entries, want 3", e.Name(), got)
			}
			if got := len(rep.Series["rank_bytes_sent"]); got != 3 {
				t.Errorf("%s: rank_bytes_sent has %d entries, want 3", e.Name(), got)
			}
			if im := rep.Metrics["load_imbalance_tallies"]; im < 1 {
				t.Errorf("%s: load_imbalance_tallies = %v, want >= 1", e.Name(), im)
			}
			if e.Name() == "geo" && len(rep.Series["geo_round_forwards"]) == 0 {
				t.Errorf("geo: no geo_round_forwards series")
			}
		}
	}
}

// TestInvalidConfigErrorsUniformly: an invalid Config must come back as an
// error — never a panic, never a silent reinterpretation — from every
// engine identically. This is the contract that lets callers (the public
// API, the HTTP server, the CLIs) validate once by attempting a run,
// whatever engine the user selected.
func TestInvalidConfigErrorsUniformly(t *testing.T) {
	s := quickScene(t)
	cases := []struct {
		label  string
		mutate func(*Config)
	}{
		{"zero-photons", func(c *Config) { c.Core.Photons = 0 }},
		{"negative-photons", func(c *Config) { c.Core.Photons = -5 }},
		{"negative-workers", func(c *Config) { c.Workers = -1 }},
		{"negative-batch", func(c *Config) { c.BatchSize = -500 }},
		{"negative-sections", func(c *Config) { c.Core.Sections = -2 }},
		{"negative-max-bounces", func(c *Config) { c.Core.MaxBounces = -1 }},
	}
	for _, e := range All() {
		for _, tc := range cases {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s/%s: panicked: %v", e.Name(), tc.label, r)
					}
				}()
				cfg := Config{Core: core.DefaultConfig(1000), Workers: 2}
				tc.mutate(&cfg)
				if _, err := e.Run(s, cfg); err == nil {
					t.Errorf("%s/%s: invalid config accepted", e.Name(), tc.label)
				}
			}()
		}
	}
}

func TestGeoRejectsSectioning(t *testing.T) {
	s := quickScene(t)
	cfg := Config{Core: core.DefaultConfig(100)}
	cfg.Core.Sections = 4
	if _, err := Geo.Run(s, cfg); err == nil {
		t.Fatal("geo accepted a sectioned forest instead of refusing")
	}
}

func TestWorkersDefaultToGOMAXPROCS(t *testing.T) {
	s := quickScene(t)
	// Workers=0 must not error on any engine.
	for _, e := range All() {
		if _, err := e.Run(s, Config{Core: core.DefaultConfig(500)}); err != nil {
			t.Fatalf("%s with Workers=0: %v", e.Name(), err)
		}
	}
}
