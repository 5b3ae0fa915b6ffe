package core

import (
	"testing"

	"repro/internal/bintree"
	"repro/internal/scenes"
)

// waveScenes returns the scene set the wavefront identity tests sweep:
// the quickstart room plus the Cornell box (mirror materials exercise the
// specular branch of Interact).
func waveScenes(t *testing.T) map[string]*scenes.Scene {
	t.Helper()
	cornell, err := scenes.CornellBox()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*scenes.Scene{
		"quickstart": quickScene(t),
		"cornell":    cornell,
	}
}

// perPhotonRun is the reference answer: a plain TracePhotonFunc loop over
// PhotonStream(seed, i), applying each tally to the forest as it arrives.
func perPhotonRun(t *testing.T, s *scenes.Scene, cfg Config) *Result {
	t.Helper()
	sim, err := NewSimulator(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := sim.Config()
	forest := bintree.NewForestSectioned(len(s.Geom.Patches), c.Sections, c.Bin)
	var stats Stats
	for i := int64(0); i < c.Photons; i++ {
		sim.TracePhotonFunc(PhotonStream(c.Seed, i), &stats, func(tl Tally) {
			if forest.Add(int(tl.Patch), tl.Point, tl.Power) {
				stats.BinSplits++
			}
		})
	}
	return &Result{Scene: s, Forest: forest, Stats: stats, EmittedPhotons: stats.PhotonsEmitted}
}

// TestRunWavefrontBitIdentical pins the tentpole contract at the core layer:
// for every batch size (0 is Run's default), the runner's stats and forest
// fingerprint equal the per-photon reference's exactly.
func TestRunWavefrontBitIdentical(t *testing.T) {
	for name, s := range waveScenes(t) {
		cfg := DefaultConfig(4000)
		cfg.Seed = 99
		want := perPhotonRun(t, s, cfg)
		for _, batch := range []int{0, 1, 16, 64, 256} {
			got, err := RunWavefront(s, cfg, batch)
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats != want.Stats {
				t.Errorf("%s batch %d: stats diverge\nwavefront: %+v\nserial:    %+v",
					name, batch, got.Stats, want.Stats)
			}
			if got.Forest.Fingerprint() != want.Forest.Fingerprint() {
				t.Errorf("%s batch %d: forest fingerprint %x != serial %x",
					name, batch, got.Forest.Fingerprint(), want.Forest.Fingerprint())
			}
		}
	}
}

// TestWaveTallySequence requires more than fingerprint equality: the exact
// tally sequence a Wave delivers for photons [lo, hi) must equal the
// concatenation of each photon's per-photon tally list in index order —
// proving the slot-order flush undoes wavefront interleaving completely.
func TestWaveTallySequence(t *testing.T) {
	for name, s := range waveScenes(t) {
		cfg := DefaultConfig(700)
		cfg.Seed = 7
		sim, err := NewSimulator(s, cfg)
		if err != nil {
			t.Fatal(err)
		}

		var wantStats Stats
		var want []Tally
		for i := int64(0); i < cfg.Photons; i++ {
			sim.TracePhotonFunc(PhotonStream(cfg.Seed, i), &wantStats, func(tl Tally) {
				want = append(want, tl)
			})
		}

		for _, batch := range []int{1, 16, 64, 256} {
			var gotStats Stats
			var got []Tally
			w := NewWave(sim, batch)
			w.Trace(0, cfg.Photons, &gotStats, func(tl Tally) {
				got = append(got, tl)
			})
			if gotStats != wantStats {
				t.Fatalf("%s batch %d: stats diverge\nwave:   %+v\nserial: %+v",
					name, batch, gotStats, wantStats)
			}
			if len(got) != len(want) {
				t.Fatalf("%s batch %d: %d tallies, want %d", name, batch, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s batch %d: tally %d diverges\nwave:   %+v\nserial: %+v",
						name, batch, i, got[i], want[i])
				}
			}
		}
	}
}

// TestWaveTraceSubRange checks that tracing an arbitrary photon sub-range
// (a work-stealing chunk) through a Wave matches the same photons traced
// per-photon — the property the shared engine's chunk workers rely on.
func TestWaveTraceSubRange(t *testing.T) {
	s := quickScene(t)
	cfg := DefaultConfig(2000)
	cfg.Seed = 4242
	sim, err := NewSimulator(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ranges := [][2]int64{{0, 1}, {37, 100}, {500, 517}, {1000, 1513}, {1999, 2000}}
	for _, rg := range ranges {
		lo, hi := rg[0], rg[1]
		var wantStats Stats
		var want []Tally
		for i := lo; i < hi; i++ {
			sim.TracePhotonFunc(PhotonStream(cfg.Seed, i), &wantStats, func(tl Tally) {
				want = append(want, tl)
			})
		}
		var gotStats Stats
		var got []Tally
		w := NewWave(sim, 64)
		w.Trace(lo, hi, &gotStats, func(tl Tally) {
			got = append(got, tl)
		})
		if gotStats != wantStats {
			t.Fatalf("range [%d,%d): stats diverge\nwave:   %+v\nserial: %+v", lo, hi, gotStats, wantStats)
		}
		if len(got) != len(want) {
			t.Fatalf("range [%d,%d): %d tallies, want %d", lo, hi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("range [%d,%d): tally %d diverges", lo, hi, i)
			}
		}
	}
}

// TestWaveReuseAcrossBatches drives one Wave through many back-to-back
// ranges to catch stale state leaking between batches (streams, staging
// buffers, active lists).
func TestWaveReuseAcrossBatches(t *testing.T) {
	s := quickScene(t)
	cfg := DefaultConfig(900)
	cfg.Seed = 31
	sim, err := NewSimulator(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wantStats Stats
	var want []Tally
	for i := int64(0); i < cfg.Photons; i++ {
		sim.TracePhotonFunc(PhotonStream(cfg.Seed, i), &wantStats, func(tl Tally) {
			want = append(want, tl)
		})
	}
	w := NewWave(sim, 128)
	var gotStats Stats
	var got []Tally
	deliver := func(tl Tally) { got = append(got, tl) }
	// Uneven consecutive chunks, including ones smaller than the wave size.
	for _, rg := range [][2]int64{{0, 3}, {3, 260}, {260, 261}, {261, 700}, {700, 900}} {
		w.Trace(rg[0], rg[1], &gotStats, deliver)
	}
	if gotStats != wantStats {
		t.Fatalf("stats diverge\nwave:   %+v\nserial: %+v", gotStats, wantStats)
	}
	if len(got) != len(want) {
		t.Fatalf("%d tallies, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tally %d diverges\nwave:   %+v\nserial: %+v", i, got[i], want[i])
		}
	}
}

// TestRegroupingDeterminism pins that batch geometry never reorders tally
// application: the full runner at several widths must agree on BinSplits
// (the only stat sensitive to delivery order) and on the forest.
func TestRegroupingDeterminism(t *testing.T) {
	s := quickScene(t)
	cfg := DefaultConfig(3000)
	cfg.Seed = 555
	base, err := RunWavefront(s, cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{17, 100, 256} {
		got, err := RunWavefront(s, cfg, batch)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats.BinSplits != base.Stats.BinSplits {
			t.Fatalf("batch %d: BinSplits %d != %d — tally application order changed",
				batch, got.Stats.BinSplits, base.Stats.BinSplits)
		}
		if got.Forest.Fingerprint() != base.Forest.Fingerprint() {
			t.Fatalf("batch %d: fingerprint diverges across batch geometries", batch)
		}
	}
}

// TestWaveTraceAllocatesNothing pins the steady state: once a Wave and its
// consumer have grown to a batch's size, tracing further batches performs
// no heap allocation — per-photon substreams are seated in place, not
// built by PhotonStream.
func TestWaveTraceAllocatesNothing(t *testing.T) {
	s := quickScene(t)
	sim, err := NewSimulator(s, DefaultConfig(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	w := NewWave(sim, DefaultWaveSize)
	var stats Stats
	var tallies int
	deliver := func(Tally) { tallies++ }
	lo := int64(0)
	trace := func() {
		w.Trace(lo, lo+DefaultWaveSize, &stats, deliver)
		lo += DefaultWaveSize
	}
	for i := 0; i < 200; i++ { // warm-up: grow staging to the longest batch seen
		trace()
	}
	if n := testing.AllocsPerRun(100, trace); n != 0 {
		t.Fatalf("Wave.Trace: %v allocs per batch in steady state, want 0", n)
	}
}
