package photon

// The wave-width axis of the conformance matrix. Every engine but geo
// traces through core.Wave, and the contract is that batching is invisible
// in the answer: for every bundled scene and every wave width, stats and
// bin forests are bit-identical. The engines trace at core.DefaultWaveSize,
// so the width sweeps call core.RunWavefront directly; the shared engine's
// chunk sweep lives in internal/shared (TestChunkWaveInteraction). See
// DESIGN.md "Wavefront batching" for why identity survives. Because the
// serial reference is itself a Wave, TestPerPhotonOracleConformance holds
// the engines to an independent oracle: a plain per-photon
// TracePhotonFunc loop.

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

// TestPerPhotonOracleConformance pins the serial tracer at several
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
					solve func() (*core.Result, error)
				}
				var runs []run
				for _, batch := range []int{0, 1, 37, 500} {
					runs = append(runs, run{fmt.Sprintf("serial-s%d-batch%d", sections, batch),
						func() (*core.Result, error) { return core.RunWavefront(sc, coreCfg, batch) }})
				}
				if sections == 4 {
					for _, batch := range []int{1, 37, 500} {
						runs = append(runs, run{fmt.Sprintf("distributed-r2-batch%d", batch),
							func() (*core.Result, error) {
								sol, err := engine.Distributed.Run(sc, engine.Config{Core: coreCfg, Workers: 2, BatchSize: batch})
								if err != nil {
									return nil, err
								}
								return sol.Result, nil
							}})
					}
				}
				for _, r := range runs {
					res, err := r.solve()
					if err != nil {
						t.Fatalf("%s: %v", r.label, err)
					}
					if res.Stats != wantStats {
						t.Errorf("%s: stats diverge from the per-photon oracle:\ngot:    %+v\noracle: %+v",
							r.label, res.Stats, wantStats)
					}
					if res.Forest.Fingerprint() != wantForest.Fingerprint() {
						t.Errorf("%s: forest fingerprint %x != oracle %x",
							r.label, res.Forest.Fingerprint(), wantForest.Fingerprint())
					}
				}
			}
		})
	}
}

// wavefrontBatchSizes spans the degenerate width (1: every packet is a
// single ray, reducing the wavefront to the per-photon path), partial
// final batches (16, 64 against non-multiple photon counts) and a width
// wider than the default (256).
func wavefrontBatchSizes(t *testing.T) []int {
	t.Helper()
	if testing.Short() {
		return []int{1, 64}
	}
	return []int{1, 16, 64, 256}
}

// TestWavefrontBatchConformance is the width × workers matrix, per scene:
// cell batchB-wW holds the serial tracer at wave width B (core.RunWavefront)
// to the shared engine at W workers (tracing at core.DefaultWaveSize).
// Identical Stats and forest fingerprint required — bit-identity, not
// closeness. Each width and each worker count runs once; the cells compare.
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
			serial := make(map[int]*core.Result)
			for _, batch := range wavefrontBatchSizes(t) {
				res, err := core.RunWavefront(sc, coreCfg, batch)
				if err != nil {
					t.Fatalf("serial batch %d: %v", batch, err)
				}
				serial[batch] = res
			}
			shared := make(map[int]*core.Result)
			for _, workers := range workerCounts {
				sol, err := engine.Shared.Run(sc, engine.Config{Core: coreCfg, Workers: workers})
				if err != nil {
					t.Fatalf("shared w%d: %v", workers, err)
				}
				shared[workers] = sol.Result
			}
			for _, batch := range wavefrontBatchSizes(t) {
				for _, workers := range workerCounts {
					t.Run(fmt.Sprintf("batch%d-w%d", batch, workers), func(t *testing.T) {
						s, w := serial[batch], shared[workers]
						if w.Stats != s.Stats {
							t.Errorf("stats diverge:\nshared: %+v\nserial: %+v", w.Stats, s.Stats)
						}
						if w.Forest.Fingerprint() != s.Forest.Fingerprint() {
							t.Errorf("forest fingerprint: shared %x != serial %x",
								w.Forest.Fingerprint(), s.Forest.Fingerprint())
						}
					})
				}
			}
		})
	}
}
