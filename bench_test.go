package photon

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates its experiment (the same rows /
// series the paper reports) and publishes the key shape metrics via
// b.ReportMetric, so `go test -bench=. -benchmem` reproduces the entire
// evaluation chapter. cmd/photon-bench prints the full text form.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/benchutil"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/scenes"
	"repro/internal/server"
	"repro/internal/shared"
	"repro/internal/vecmath"
)

// runExperiment executes fn once per benchmark iteration and reports the
// chosen metrics from the final run.
func runExperiment(b *testing.B, metrics []string, fn func() (*experiments.Result, error)) {
	b.Helper()
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := fn()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, m := range metrics {
		if v, ok := last.Values[m]; ok {
			b.ReportMetric(v, m)
		}
	}
}

func BenchmarkTable51_GeometrySizes(b *testing.B) {
	runExperiment(b, []string{"leaves-Cornell", "leaves-Harpsichord", "leaves-Computer"},
		func() (*experiments.Result, error) { return experiments.Table51(120000) })
}

func BenchmarkTable52_LoadBalance(b *testing.B) {
	runExperiment(b, []string{"naive-maxmin", "packed-maxmin"},
		func() (*experiments.Result, error) { return experiments.Table52(80000) })
}

func BenchmarkTable53_BatchSizes(b *testing.B) {
	runExperiment(b, []string{"onyx-final", "sp2-final", "indy-final"}, experiments.Table53)
}

func BenchmarkFig43_PhotonGenKernels(b *testing.B) {
	runExperiment(b, []string{"speedup", "flop-ratio"},
		func() (*experiments.Result, error) { return experiments.Fig43Kernels(1_000_000) })
}

func BenchmarkFig54_MemoryGrowth(b *testing.B) {
	runExperiment(b, []string{"final-mb", "first-half-growth", "second-half-growth"},
		func() (*experiments.Result, error) { return experiments.Fig54Memory(300000) })
}

func BenchmarkFig56to58_SharedMemorySpeedup(b *testing.B) {
	runExperiment(b, []string{
		"cornell-box-speedup-8", "harpsichord-room-speedup-8", "computer-lab-speedup-8",
	}, func() (*experiments.Result, error) { return experiments.Fig56to58Shared(300), nil })
}

func BenchmarkFig59to511_IndyClusterSpeedup(b *testing.B) {
	runExperiment(b, []string{
		"cornell-box-speedup-8", "harpsichord-room-speedup-2", "computer-lab-speedup-8",
	}, func() (*experiments.Result, error) { return experiments.Fig59to511Indy(300), nil })
}

func BenchmarkFig512to514_SP2Speedup(b *testing.B) {
	runExperiment(b, []string{
		"cornell-box-speedup-2", "cornell-box-speedup-4", "cornell-box-speedup-64",
		"computer-lab-speedup-64",
	}, func() (*experiments.Result, error) { return experiments.Fig512to514SP2(300), nil })
}

func BenchmarkFig515_GraphOfGraphs(b *testing.B) {
	runExperiment(b, nil,
		func() (*experiments.Result, error) { return experiments.Fig515GraphOfGraphs(300), nil })
}

func BenchmarkFig516_VisualSpeedup(b *testing.B) {
	runExperiment(b, []string{"photons-1", "photons-8", "rmse-1", "rmse-8"},
		func() (*experiments.Result, error) { return experiments.Fig516Visual(60) })
}

func BenchmarkFig24_SphericalHarmonicRinging(b *testing.B) {
	runExperiment(b, []string{"undershoot", "peak"},
		func() (*experiments.Result, error) { return experiments.Fig24SphHarm(), nil })
}

func BenchmarkFig410_ViewpointReuse(b *testing.B) {
	runExperiment(b, []string{"sim-ms"},
		func() (*experiments.Result, error) { return experiments.Fig410Viewpoints(120000) })
}

func BenchmarkDensityEstimationBaseline(b *testing.B) {
	runExperiment(b, []string{"trace-speedup", "mesh-speedup", "storage-ratio"},
		func() (*experiments.Result, error) { return experiments.DensityComparison(60000) })
}

func BenchmarkRadiosityBaseline(b *testing.B) {
	runExperiment(b, []string{"jacobi-iters", "gs-iters", "hr-tight"},
		func() (*experiments.Result, error) { return experiments.RadiosityBaseline() })
}

// BenchmarkGeoDistribution is the chapter-6 ablation: replicated-geometry
// tally forwarding versus geometry-distributed photon-flight forwarding.
func BenchmarkGeoDistribution(b *testing.B) {
	runExperiment(b, []string{"geo-forwards", "repl-bytes", "geo-bytes"},
		func() (*experiments.Result, error) { return experiments.GeoDistribution(40000) })
}

// --- Engine throughput benchmarks (real wall-clock, this host) ---

func benchEngine(b *testing.B, sceneName string, engine Engine, workers int) {
	b.Helper()
	sc, err := SceneByName(sceneName)
	if err != nil {
		b.Fatal(err)
	}
	const photonsPerIter = 20000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(sc, Config{
			Photons: photonsPerIter, Engine: engine, Workers: workers, Seed: int64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(photonsPerIter)*float64(b.N)/b.Elapsed().Seconds(), "photons/s")
}

func BenchmarkEngineSerialCornell(b *testing.B) { benchEngine(b, "cornell-box", EngineSerial, 1) }
func BenchmarkEngineSharedCornell(b *testing.B) { benchEngine(b, "cornell-box", EngineShared, 4) }
func BenchmarkEngineDistCornell(b *testing.B)   { benchEngine(b, "cornell-box", EngineDistributed, 4) }
func BenchmarkEngineSerialLab(b *testing.B)     { benchEngine(b, "computer-lab", EngineSerial, 1) }

// --- Intersection hot-path benchmarks (flattened octree, PR 4) ---

// benchScenes are the hot-path benchmarks' scenes: the three bundled rooms
// plus one generated office, a canonical scenegen spec so the workload is
// reproducible from its name alone.
var benchScenes = []string{"cornell-box", "harpsichord-room", "computer-lab", "gen:office/seed=7/rooms=2/density=0.6"}

// BenchmarkIntersectMrays measures raw octree throughput per bundled scene:
// a fixed set of rays from interior points in uniform directions, closest
// hit per ray, single thread. Mrays/s is the paper's
// "DetermineIntersection" cost made directly readable.
func BenchmarkIntersectMrays(b *testing.B) {
	for _, name := range benchScenes {
		b.Run(name, func(b *testing.B) {
			sc, err := SceneByName(name)
			if err != nil {
				b.Fatal(err)
			}
			rays := benchRays(sc, 1024)
			var h geom.Hit
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.Geom.Intersect(rays[i&1023], &h)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrays/s")
		})
	}
}

// BenchmarkTracePhotons measures single-thread end-to-end photon tracing
// per bundled scene through core.Run — the serial engine's core.Wave:
// emission, octree traversal, scattering and forest tallies, nothing
// parallel — so the photons/s column isolates the per-photon cost.
func BenchmarkTracePhotons(b *testing.B) {
	for _, name := range benchScenes {
		b.Run(name, func(b *testing.B) {
			sc, err := SceneByName(name)
			if err != nil {
				b.Fatal(err)
			}
			const photonsPerIter = 20000
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(photonsPerIter)
				cfg.Seed = int64(i + 1)
				if _, err := core.Run(sc, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(photonsPerIter)*float64(b.N)/b.Elapsed().Seconds(), "photons/s")
		})
	}
}

// benchRays is the shared deterministic ray set (see internal/benchutil).
func benchRays(sc *Scene, n int) []vecmath.Ray {
	return benchutil.Rays(sc.Geom, n)
}

// --- Ablation benches for DESIGN.md's design choices ---

// BenchmarkAblationBatchSize quantifies the communication-amortization
// trade the adaptive controller navigates: throughput of the distributed
// engine at fixed small vs paper-equilibrium batch sizes.
func BenchmarkAblationBatchSize(b *testing.B) {
	sc, err := scenes.Quickstart()
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range []int{50, 500, 1500} {
		b.Run(sizeName(batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := dist.DefaultConfig(20000, 4)
				cfg.BatchSize = batch
				if _, err := dist.Run(sc, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(n int) string {
	switch {
	case n < 100:
		return "batch-small"
	case n < 1000:
		return "batch-paper-initial"
	default:
		return "batch-paper-equilibrium"
	}
}

// --- View-stage (tile renderer + server) benchmarks ---

// BenchmarkRenderWorkers measures the tile-parallel viewer at 1/4/8
// workers over one answer. The image is bit-identical at every worker
// count (pinned by TestRenderWorkerConformance), so the comparison is
// purely throughput; pixels/s makes the scaling directly readable.
func BenchmarkRenderWorkers(b *testing.B) {
	sc, err := SceneByName("quickstart")
	if err != nil {
		b.Fatal(err)
	}
	sol, err := Simulate(sc, Config{Photons: 50000})
	if err != nil {
		b.Fatal(err)
	}
	cam := Camera{
		Eye: V(2, 0.3, 1.5), LookAt: V(2, 4, 1.2), Up: V(0, 0, 1),
		FovY: 70, Width: 320, Height: 240,
	}
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Render(sc, sol, cam, RenderOptions{
					Exposure: 2, Workers: workers, Samples: 2,
				}); err != nil {
					b.Fatal(err)
				}
			}
			pixels := float64(cam.Width*cam.Height) * float64(b.N)
			b.ReportMetric(pixels/b.Elapsed().Seconds(), "pixels/s")
		})
	}
}

// BenchmarkServeThroughput measures photon-serve end to end: concurrent
// HTTP clients rendering viewpoints from one LRU-cached answer file. The
// first request pays the load; every subsequent render is pure reads over
// the resident forest, so throughput is the tile renderer plus PNG
// encoding plus HTTP, with zero lock traffic between requests.
func BenchmarkServeThroughput(b *testing.B) {
	dir := b.TempDir()
	sc, err := SceneByName("quickstart")
	if err != nil {
		b.Fatal(err)
	}
	sol, err := Simulate(sc, Config{Photons: 30000})
	if err != nil {
		b.Fatal(err)
	}
	if err := sol.SaveFile(filepath.Join(dir, "bench.pbf")); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(server.New(server.Config{AnswerDir: dir, RenderWorkers: 1}))
	defer ts.Close()
	url := ts.URL + "/render?answer=bench.pbf&w=160&h=120"

	// Warm the cache outside the timed region.
	resp, err := http.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("warmup status %d", resp.StatusCode)
	}

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := http.Get(url)
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkAblationLockStriping measures the shared engine with 1 worker
// (lock overhead only) against the lock-free serial engine: the price of
// the multiple-reader / single-writer protocol.
func BenchmarkAblationLockStriping(b *testing.B) {
	sc, err := scenes.Quickstart()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial-no-locks", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(sc, core.DefaultConfig(20000)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shared-1worker-buffered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := shared.Run(sc, shared.Config{Core: core.DefaultConfig(20000), Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
