package core

import (
	"testing"

	"repro/internal/bintree"
	"repro/internal/scenes"
)

// traceScenes returns the scene set the trace identity tests sweep: the
// quickstart room plus the Cornell box (mirror materials exercise the
// specular branch of Interact).
func traceScenes(t *testing.T) map[string]*scenes.Scene {
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
// freshly built PhotonStream(seed, i) streams, applying each tally to the
// forest as it arrives. It also returns the delivered tally sequence.
func perPhotonRun(t *testing.T, s *scenes.Scene, cfg Config) (*Result, []Tally) {
	t.Helper()
	sim, err := NewSimulator(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := sim.Config()
	forest := bintree.NewForestSectioned(len(s.Geom.Patches), c.Sections, c.Bin)
	var stats Stats
	var tallies []Tally
	for i := int64(0); i < c.Photons; i++ {
		sim.TracePhotonFunc(PhotonStream(c.Seed, i), &stats, func(tl Tally) {
			tallies = append(tallies, tl)
			if forest.Add(int(tl.Patch), tl.Point, tl.Power) {
				stats.BinSplits++
			}
		})
	}
	return &Result{Scene: s, Forest: forest, Stats: stats, EmittedPhotons: stats.PhotonsEmitted}, tallies
}

// TestRunMatchesPerPhoton pins the serial runner to the per-photon
// reference: equal stats and forest fingerprint.
func TestRunMatchesPerPhoton(t *testing.T) {
	for name, s := range traceScenes(t) {
		cfg := DefaultConfig(4000)
		cfg.Seed = 99
		want, _ := perPhotonRun(t, s, cfg)
		got, err := Run(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats != want.Stats {
			t.Errorf("%s: stats diverge\nRun:        %+v\nper-photon: %+v", name, got.Stats, want.Stats)
		}
		if got.Forest.Fingerprint() != want.Forest.Fingerprint() {
			t.Errorf("%s: forest fingerprint %x != per-photon %x",
				name, got.Forest.Fingerprint(), want.Forest.Fingerprint())
		}
	}
}

// TestTraceTallySequence requires more than fingerprint equality: Trace
// over [0, N), cut at uneven boundaries the way shared chunks and
// distributed rounds cut it, must deliver exactly the per-photon
// reference's tally sequence, stats and forest. The reference builds a
// fresh PhotonStream per photon, so this also pins that Trace's in-place
// Reset of one stream is a fresh stream.
func TestTraceTallySequence(t *testing.T) {
	for name, s := range traceScenes(t) {
		cfg := DefaultConfig(700)
		cfg.Seed = 7
		ref, want := perPhotonRun(t, s, cfg)
		sim, err := NewSimulator(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, cuts := range [][]int64{
			{0, 700},
			{0, 1, 3, 40, 41, 260, 261, 512, 513, 700},
			{0, 37, 74, 111, 148, 500, 699, 700},
		} {
			c := sim.Config()
			forest := bintree.NewForestSectioned(len(s.Geom.Patches), c.Sections, c.Bin)
			var stats Stats
			var got []Tally
			deliver := func(tl Tally) {
				got = append(got, tl)
				if forest.Add(int(tl.Patch), tl.Point, tl.Power) {
					stats.BinSplits++
				}
			}
			for k := 1; k < len(cuts); k++ {
				sim.Trace(cuts[k-1], cuts[k], &stats, deliver)
			}
			if stats != ref.Stats {
				t.Fatalf("%s cuts %v: stats diverge\nTrace:      %+v\nper-photon: %+v", name, cuts, stats, ref.Stats)
			}
			if len(got) != len(want) {
				t.Fatalf("%s cuts %v: %d tallies, want %d", name, cuts, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s cuts %v: tally %d diverges\nTrace:      %+v\nper-photon: %+v",
						name, cuts, i, got[i], want[i])
				}
			}
			if forest.Fingerprint() != ref.Forest.Fingerprint() {
				t.Fatalf("%s cuts %v: forest fingerprint %x != per-photon %x",
					name, cuts, forest.Fingerprint(), ref.Forest.Fingerprint())
			}
		}
	}
}

// TestTraceSubRange checks that tracing an arbitrary photon sub-range (a
// work-stealing chunk, a rank's round) matches the same photons traced
// per-photon — Trace starts photon lo on its own substream, not where an
// earlier call left off.
func TestTraceSubRange(t *testing.T) {
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
		sim.Trace(lo, hi, &gotStats, func(tl Tally) {
			got = append(got, tl)
		})
		if gotStats != wantStats {
			t.Fatalf("range [%d,%d): stats diverge\nTrace:      %+v\nper-photon: %+v", lo, hi, gotStats, wantStats)
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

// TestTraceAllocatesNothing pins the steady state: tracing a range of
// photons performs no heap allocation — each photon's substream is seated
// in place in one stack-held stream, not built by PhotonStream.
func TestTraceAllocatesNothing(t *testing.T) {
	s := quickScene(t)
	sim, err := NewSimulator(s, DefaultConfig(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	var tallies int
	deliver := func(Tally) { tallies++ }
	lo := int64(0)
	trace := func() {
		sim.Trace(lo, lo+64, &stats, deliver)
		lo += 64
	}
	trace()
	if n := testing.AllocsPerRun(100, trace); n != 0 {
		t.Fatalf("Simulator.Trace: %v allocs per 64 photons in steady state, want 0", n)
	}
}
