package photon

// The batch-size axis of the conformance matrix. Every engine but geo
// traces through core.Wave, and the contract is that batching is invisible
// in the answer: for every bundled scene, every batch width and every
// worker count, stats and bin forests are bit-identical to the serial
// engine's. This is the acceptance bar that lets the batch width be a pure
// tuning knob — see DESIGN.md "Wavefront batching" for why identity
// survives. Because the serial reference is itself a Wave,
// TestPerPhotonOracleConformance holds the engines to an independent
// oracle: a plain per-photon TracePhotonFunc loop.

import (
	"fmt"
	"testing"

	"repro/internal/bintree"
	"repro/internal/core"
	"repro/internal/engine"
)

// perPhotonOracle traces cfg's photons one at a time with
// core.Simulator.TracePhotonFunc on their PhotonStream substreams, applying
// every tally to the forest as it arrives — the Figure 4.1 loop with no
// batching, staging or reordering anywhere.
func perPhotonOracle(t *testing.T, sc *Scene, cfg core.Config) (core.Stats, *bintree.Forest) {
	t.Helper()
	sim, err := core.NewSimulator(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := sim.Config()
	forest := bintree.NewForestSectioned(len(sc.Geom.Patches), c.Sections, c.Bin)
	var stats core.Stats
	for i := int64(0); i < c.Photons; i++ {
		sim.TracePhotonFunc(core.PhotonStream(c.Seed, i), &stats, func(tl core.Tally) {
			if forest.Add(int(tl.Patch), tl.Point, tl.Power) {
				stats.BinSplits++
			}
		})
	}
	return stats, forest
}

// TestPerPhotonOracleConformance pins the serial engine at several
// wavefront widths and the replicated distributed engine (two ranks,
// several exchange batch sizes) against perPhotonOracle on every bundled
// scene: equal Stats and equal Forest.Fingerprint().
func TestPerPhotonOracleConformance(t *testing.T) {
	photons := int64(3000)
	if testing.Short() {
		photons = 1000
	}
	for _, sceneName := range SceneNames() {
		sc, err := SceneByName(sceneName)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(sceneName, func(t *testing.T) {
			for _, sections := range []int{1, 4} {
				coreCfg := core.DefaultConfig(photons)
				coreCfg.Sections = sections
				wantStats, wantForest := perPhotonOracle(t, sc, coreCfg)
				type run struct {
					label string
					eng   engine.Engine
					cfg   engine.Config
				}
				var runs []run
				for _, batch := range []int{0, 1, 37, 500} {
					runs = append(runs, run{fmt.Sprintf("serial-s%d-batch%d", sections, batch),
						engine.Serial, engine.Config{Core: coreCfg, BatchSize: batch}})
				}
				if sections == 4 {
					for _, batch := range []int{1, 37, 500} {
						runs = append(runs, run{fmt.Sprintf("distributed-r2-batch%d", batch),
							engine.Distributed, engine.Config{Core: coreCfg, Workers: 2, BatchSize: batch}})
					}
				}
				for _, r := range runs {
					sol, err := r.eng.Run(sc, r.cfg)
					if err != nil {
						t.Fatalf("%s: %v", r.label, err)
					}
					if sol.Stats != wantStats {
						t.Errorf("%s: stats diverge from the per-photon oracle:\ngot:    %+v\noracle: %+v",
							r.label, sol.Stats, wantStats)
					}
					if sol.Forest.Fingerprint() != wantForest.Fingerprint() {
						t.Errorf("%s: forest fingerprint %x != oracle %x",
							r.label, sol.Forest.Fingerprint(), wantForest.Fingerprint())
					}
				}
			}
		})
	}
}

// wavefrontBatchSizes spans the degenerate width (1: every packet is a
// single ray, reducing the wavefront to the per-photon path), partial
// final batches (16, 64 against non-multiple photon counts) and a width
// larger than the work-stealing chunk interplay usually sees (256).
func wavefrontBatchSizes(t *testing.T) []int {
	t.Helper()
	if testing.Short() {
		return []int{1, 64}
	}
	return []int{1, 16, 64, 256}
}

// TestWavefrontBatchConformance is the batch × workers matrix: shared
// engine at batch {1,16,64,256} × workers {1,2,8} versus the serial
// reference, per scene. Identical Summary (which embeds the forest
// fingerprint) and identical Stats required — bit-identity, not closeness.
func TestWavefrontBatchConformance(t *testing.T) {
	photons := int64(6000)
	if testing.Short() {
		photons = 2000
	}
	for _, sceneName := range SceneNames() {
		sc, err := SceneByName(sceneName)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(sceneName, func(t *testing.T) {
			refSum, refStats := runSummary(t, sc, Config{
				Photons: photons, Engine: EngineSerial, Sections: 1})
			for _, batch := range wavefrontBatchSizes(t) {
				for _, workers := range []int{1, 2, 8} {
					t.Run(fmt.Sprintf("batch%d-w%d", batch, workers), func(t *testing.T) {
						sum, stats := runSummary(t, sc, Config{
							Photons: photons, Engine: EngineShared,
							Workers: workers, BatchSize: batch, Sections: 1})
						if stats != refStats {
							t.Errorf("stats diverge from serial:\nbatched: %+v\nserial:  %+v",
								stats, refStats)
						}
						if sum != refSum {
							t.Errorf("summary diverges from serial:\nbatched: %+v\nserial:  %+v",
								sum, refSum)
						}
					})
				}
			}
		})
	}
}

// TestWavefrontBatchChunkInteraction pins the awkward geometries the
// matrix's round numbers can miss: batch widths that do not divide the
// chunk size, chunks smaller than one batch, and photon counts leaving
// ragged final chunks AND ragged final batches simultaneously.
func TestWavefrontBatchChunkInteraction(t *testing.T) {
	sc, err := SceneByName(SceneNames()[0])
	if err != nil {
		t.Fatal(err)
	}
	coreCfg := core.DefaultConfig(3001) // prime-ish: ragged under every divisor below
	ref, err := engine.Serial.Run(sc, engine.Config{Core: coreCfg})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		chunk int64
		batch int
	}{
		{chunk: 100, batch: 64},  // batch straddles chunk boundary
		{chunk: 33, batch: 256},  // chunk smaller than one batch
		{chunk: 512, batch: 100}, // non-power-of-two width
		{chunk: 1, batch: 64},    // every chunk is a single photon
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("chunk%d-batch%d", c.chunk, c.batch), func(t *testing.T) {
			sol, err := engine.Shared.Run(sc, engine.Config{
				Core: coreCfg, Workers: 3, ChunkSize: c.chunk, BatchSize: c.batch})
			if err != nil {
				t.Fatal(err)
			}
			if sol.Stats != ref.Stats {
				t.Errorf("chunk=%d batch=%d: stats diverge from serial:\nbatched: %+v\nserial:  %+v",
					c.chunk, c.batch, sol.Stats, ref.Stats)
			}
			if sol.Forest.Fingerprint() != ref.Forest.Fingerprint() {
				t.Errorf("chunk=%d batch=%d: forest fingerprint %x != serial %x",
					c.chunk, c.batch, sol.Forest.Fingerprint(), ref.Forest.Fingerprint())
			}
		})
	}
}
