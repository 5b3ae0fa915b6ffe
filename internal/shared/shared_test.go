package shared

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
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

func TestRunValidatesWorkers(t *testing.T) {
	s := quickScene(t)
	cfg := Config{Core: core.DefaultConfig(100), Workers: 0}
	if _, err := Run(s, cfg); err == nil {
		t.Fatal("zero workers accepted")
	}
}

func TestRunEmitsExactCount(t *testing.T) {
	s := quickScene(t)
	for _, workers := range []int{1, 2, 3, 8} {
		cfg := Config{Core: core.DefaultConfig(10001), Workers: workers}
		res, err := Run(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.PhotonsEmitted != 10001 {
			t.Fatalf("workers=%d: emitted %d, want 10001", workers, res.Stats.PhotonsEmitted)
		}
	}
}

func TestForestConservation(t *testing.T) {
	s := quickScene(t)
	cfg := Config{Core: core.DefaultConfig(20000), Workers: 4}
	res, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Stats.PhotonsEmitted + res.Stats.Reflections
	if got := res.Forest.TotalPhotons(); got != want {
		t.Fatalf("forest tallies %d, want %d", got, want)
	}
	// Per-tree leaf sums intact after merge-time splitting.
	for i := 0; i < res.Forest.NumTrees(); i++ {
		tr := res.Forest.Tree(i)
		if tr.SumLeafCounts() != tr.Total() {
			t.Fatalf("tree %d leaf sum %d != total %d", i, tr.SumLeafCounts(), tr.Total())
		}
	}
}

func TestMatchesSerialStatistically(t *testing.T) {
	// Sanity guard beneath the exact-equality tests: even if the canonical
	// ordering ever changed, the physics must match serial within Monte
	// Carlo noise.
	s := quickScene(t)
	serial, err := core.Run(s, core.DefaultConfig(40000))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(s, Config{Core: core.DefaultConfig(40000), Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, b := serial.Stats.MeanPathLength(), par.Stats.MeanPathLength()
	if math.Abs(a-b) > 0.05*a {
		t.Fatalf("mean path length diverges: serial %v, shared %v", a, b)
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	// The buffered engine's contract: per-photon substreams plus in-order
	// chunk merging make the result a pure function of (seed, photons) —
	// bit-identical stats AND forest at any worker count and schedule.
	s := quickScene(t)
	ref, err := Run(s, Config{Core: core.DefaultConfig(5000), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// ChunkSize 1 at 8 workers hands the merge baton over once per photon
	// and keeps the backpressure window engaged; under -race it pins that
	// the baton alone orders every forest write.
	for _, c := range []struct {
		workers int
		chunk   int64
	}{{2, 0}, {3, 0}, {8, 0}, {8, 1}} {
		res, err := Run(s, Config{Core: core.DefaultConfig(5000), Workers: c.workers, ChunkSize: c.chunk})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats != ref.Stats {
			t.Fatalf("workers=%d chunk=%d stats diverge:\n%+v\n%+v", c.workers, c.chunk, res.Stats, ref.Stats)
		}
		if res.Forest.Fingerprint() != ref.Forest.Fingerprint() {
			t.Fatalf("workers=%d chunk=%d forest diverges from 1-worker forest", c.workers, c.chunk)
		}
	}
}

func TestSingleWorkerMatchesSerialExactly(t *testing.T) {
	// One worker with the same seed is the serial algorithm — forest
	// included, down to floating-point bits.
	s := quickScene(t)
	serial, _ := core.Run(s, core.DefaultConfig(5000))
	par, _ := Run(s, Config{Core: core.DefaultConfig(5000), Workers: 1})
	if serial.Stats != par.Stats {
		t.Fatalf("1-worker diverges from serial:\n%+v\n%+v", serial.Stats, par.Stats)
	}
	if serial.Forest.Fingerprint() != par.Forest.Fingerprint() {
		t.Fatal("1-worker forest differs from serial")
	}
}

func TestProgressMonotonicAndComplete(t *testing.T) {
	s := quickScene(t)
	var mu sync.Mutex
	var calls []int64
	cfg := Config{Core: core.DefaultConfig(4000), Workers: 4, ChunkSize: 250}
	cfg.Progress = func(done, total int64) {
		mu.Lock()
		defer mu.Unlock()
		if total != 4000 {
			t.Errorf("progress total %d, want 4000", total)
		}
		calls = append(calls, done)
	}
	if _, err := Run(s, cfg); err != nil {
		t.Fatal(err)
	}
	if len(calls) == 0 || calls[len(calls)-1] != 4000 {
		t.Fatalf("progress never reached completion: %v", calls)
	}
	for i := 1; i < len(calls); i++ {
		if calls[i] <= calls[i-1] {
			t.Fatalf("progress not strictly increasing: %v", calls)
		}
	}
}

func TestSectionedSharedMatchesSectionedSerial(t *testing.T) {
	// With the same Sections the shared forest is the serial forest.
	s := quickScene(t)
	cfg := core.DefaultConfig(6000)
	cfg.Sections = 4
	serial, err := core.Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(s, Config{Core: cfg, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if par.Forest.Cells() != 4 {
		t.Fatalf("shared forest cells = %d, want 4", par.Forest.Cells())
	}
	if serial.Forest.Fingerprint() != par.Forest.Fingerprint() {
		t.Fatal("sectioned shared forest differs from sectioned serial forest")
	}
}

func TestMoreWorkersThanPhotons(t *testing.T) {
	s := quickScene(t)
	res, err := Run(s, Config{Core: core.DefaultConfig(3), Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PhotonsEmitted != 3 {
		t.Fatalf("emitted %d, want 3", res.Stats.PhotonsEmitted)
	}
}

func BenchmarkSharedRun4Workers(b *testing.B) {
	s := quickScene(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(s, Config{Core: core.DefaultConfig(10000), Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
