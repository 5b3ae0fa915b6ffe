package photon

// The per-photon oracle and batch axes of the conformance matrix. Every
// engine but geo traces through core.Simulator.Trace, so a serial run is
// itself the loop under test; TestPerPhotonOracleConformance holds the
// engines to an independent oracle instead: a plain per-photon
// TracePhotonFunc loop on freshly built PhotonStream substreams.
// TestWavefrontBatchConformance holds the serial loop, cut into Trace calls
// of several batch sizes, to the shared engine at several worker counts.
// internal/shared's chunk-size sweep (TestChunkSizeInvariance) and
// internal/core's uneven-cut trace test (TestTraceTallySequence) cover the
// other ways a run can cut the photon range.

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
// chunking, exchange or reordering anywhere.
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

// TestPerPhotonOracleConformance pins the serial engine, the shared engine
// at 1/2/8 workers and the replicated distributed engine (two ranks,
// several exchange batch sizes) against perPhotonOracle on every bundled
// scene, at one and at 4×4 sections: equal Stats and equal
// Forest.Fingerprint() in every cell.
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
					cfg   engine.Config
					eng   engine.Engine
				}
				runs := []run{{fmt.Sprintf("serial-s%d", sections), engine.Config{Core: coreCfg}, engine.Serial}}
				for _, workers := range []int{1, 2, 8} {
					runs = append(runs, run{fmt.Sprintf("shared-s%d-w%d", sections, workers),
						engine.Config{Core: coreCfg, Workers: workers}, engine.Shared})
				}
				if sections == 4 {
					for _, batch := range []int{1, 37, 500} {
						runs = append(runs, run{fmt.Sprintf("distributed-s4-r2-batch%d", batch),
							engine.Config{Core: coreCfg, Workers: 2, BatchSize: batch}, engine.Distributed})
					}
				}
				for _, r := range runs {
					t.Run(r.label, func(t *testing.T) {
						sol, err := r.eng.Run(sc, r.cfg)
						if err != nil {
							t.Fatal(err)
						}
						if sol.Stats != wantStats {
							t.Errorf("stats diverge from the per-photon oracle:\ngot:    %+v\noracle: %+v",
								sol.Stats, wantStats)
						}
						if sol.Forest.Fingerprint() != wantForest.Fingerprint() {
							t.Errorf("forest fingerprint %x != oracle %x",
								sol.Forest.Fingerprint(), wantForest.Fingerprint())
						}
					})
				}
			}
		})
	}
}

// traceBatchSizes spans the degenerate cut (1: one Trace call per photon),
// partial final cuts (16, 64 against non-multiple photon counts) and a cut
// wider than a typical exchange round (256).
func traceBatchSizes(t *testing.T) []int {
	t.Helper()
	if testing.Short() {
		return []int{1, 64}
	}
	return []int{1, 16, 64, 256}
}

// traceInBatches runs cfg serially, tracing the photon range in consecutive
// Simulator.Trace calls of batch photons each and applying every tally to
// the forest as it arrives.
func traceInBatches(t *testing.T, sc *Scene, cfg core.Config, batch int) (core.Stats, *bintree.Forest) {
	t.Helper()
	sim, err := core.NewSimulator(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := sim.Config()
	forest := bintree.NewForestSectioned(len(sc.Geom.Patches), c.Sections, c.Bin)
	var stats core.Stats
	deliver := func(tl core.Tally) {
		if forest.Add(int(tl.Patch), tl.Point, tl.Power) {
			stats.BinSplits++
		}
	}
	for lo := int64(0); lo < c.Photons; lo += int64(batch) {
		sim.Trace(lo, min(lo+int64(batch), c.Photons), &stats, deliver)
	}
	return stats, forest
}

// TestWavefrontBatchConformance is the batch × workers matrix, per scene:
// cell batchB-wW holds the serial loop cut into consecutive Trace calls of
// B photons to the shared engine at W workers (which cuts the range into
// its own work-stealing chunks). Identical Stats and forest fingerprint
// required — bit-identity, not closeness. Each cut and each worker count
// runs once; the cells compare.
func TestWavefrontBatchConformance(t *testing.T) {
	photons := int64(6000)
	if testing.Short() {
		photons = 2000
	}
	workerCounts := []int{1, 2, 8}
	for _, sceneName := range SceneNames() {
		sc, err := SceneByName(sceneName)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(sceneName, func(t *testing.T) {
			coreCfg := core.DefaultConfig(photons)
			type answer struct {
				stats  core.Stats
				forest *bintree.Forest
			}
			serial := make(map[int]answer)
			for _, batch := range traceBatchSizes(t) {
				stats, forest := traceInBatches(t, sc, coreCfg, batch)
				serial[batch] = answer{stats, forest}
			}
			shared := make(map[int]answer)
			for _, workers := range workerCounts {
				sol, err := engine.Shared.Run(sc, engine.Config{Core: coreCfg, Workers: workers})
				if err != nil {
					t.Fatalf("shared w%d: %v", workers, err)
				}
				shared[workers] = answer{sol.Stats, sol.Forest}
			}
			for _, batch := range traceBatchSizes(t) {
				for _, workers := range workerCounts {
					t.Run(fmt.Sprintf("batch%d-w%d", batch, workers), func(t *testing.T) {
						s, w := serial[batch], shared[workers]
						if w.stats != s.stats {
							t.Errorf("stats diverge:\nshared: %+v\nserial: %+v", w.stats, s.stats)
						}
						if w.forest.Fingerprint() != s.forest.Fingerprint() {
							t.Errorf("forest fingerprint: shared %x != serial %x",
								w.forest.Fingerprint(), s.forest.Fingerprint())
						}
					})
				}
			}
		})
	}
}
