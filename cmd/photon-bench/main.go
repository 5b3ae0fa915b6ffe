// photon-bench regenerates the paper's tables and figures (chapter 5 and
// the HPDC'97 appendix), printing the same rows and series the paper
// reports, and sweeps real engine throughput on this host.
//
// Usage:
//
//	photon-bench              # run everything, paper order
//	photon-bench -list        # list experiment ids
//	photon-bench -run fig-5.4 # run one experiment
//	photon-bench -engines     # wall-clock photons/sec per engine × workers
//	photon-bench -json        # machine-readable hot-path numbers (BENCH_*.json)
//
// Scene flags accept built-in names and generator specs
// (gen:<family>/seed=N/param=value/..., see internal/scenegen); -scenes
// overrides the -json scene set, which defaults to the perf-trajectory
// scenes plus the 10²→10⁴ patch-count scale sweep — pass
// gen:grid/seed=1/patches=100000 for the 10⁵ point.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/benchutil"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/scenes"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("photon-bench: ")

	var (
		list        = flag.Bool("list", false, "list experiment ids and exit")
		run         = flag.String("run", "", "run a single experiment by id")
		engines     = flag.Bool("engines", false, "sweep engine throughput on this host and exit")
		jsonPerf    = flag.Bool("json", false, "emit the hot-path perf suite as JSON on stdout and exit")
		photons     = flag.Int64("photons", 50000, "photons per engine-sweep, -json or -perfmodel run")
		scene       = flag.String("scene", "cornell-box", "scene for -engines and -perfmodel; built-in name or gen: spec")
		sceneSet    = flag.String("scenes", "", "comma-separated scene set for -json (default: trajectory scenes + scale sweep)")
		metricsJSON = flag.String("metrics-json", "", "with -engines: write each run's span/metric report as JSON to this file (- for stdout)")
		perfValid   = flag.Bool("perfmodel", false, "measure the distributed engine at 1/2/4 ranks and compare with the platform models")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	if *jsonPerf {
		set := perfScenes
		if *sceneSet != "" {
			set = strings.Split(*sceneSet, ",")
		}
		if err := perfJSON(*photons, set); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *engines {
		if err := engineSweep(*scene, *photons, *metricsJSON); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *perfValid {
		if err := perfmodelValidate(*scene, *photons); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *run != "" {
		fn, ok := experiments.ByID(*run)
		if !ok {
			log.Fatalf("unknown experiment %q; use -list", *run)
		}
		start := time.Now()
		r, err := fn()
		if err != nil {
			log.Fatal(err)
		}
		printResult(r, time.Since(start))
		return
	}

	start := time.Now()
	results, err := experiments.All()
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		printResult(r, 0)
	}
	fmt.Printf("all %d experiments regenerated in %v\n", len(results),
		time.Since(start).Round(time.Millisecond))
}

// engineSweep drives every engine through the uniform interface and
// reports real wall-clock throughput at several worker counts — the
// companion to BenchmarkParallelScaling for quick host characterization.
// With metricsPath set, every run is instrumented and the collected
// span/metric reports are written as one JSON document.
func engineSweep(sceneName string, photons int64, metricsPath string) error {
	ctor, err := scenes.ByName(sceneName)
	if err != nil {
		return err
	}
	sc, err := ctor()
	if err != nil {
		return err
	}
	type sweepReport struct {
		Engine  string     `json:"engine"`
		Workers int        `json:"workers"`
		Report  obs.Report `json:"report"`
	}
	var reports []sweepReport
	fmt.Printf("engine sweep: %s, %d photons per run\n", sceneName, photons)
	for _, eng := range engine.All() {
		workerCounts := []int{1, 2, 4, 8}
		if eng.Name() == "serial" {
			workerCounts = []int{1}
		}
		for _, w := range workerCounts {
			cfg := engine.Config{Core: core.DefaultConfig(photons), Workers: w}
			if metricsPath != "" {
				cfg.Obs = obs.NewRun()
			}
			start := time.Now()
			res, err := eng.Run(sc, cfg)
			if err != nil {
				return fmt.Errorf("%s w=%d: %w", eng.Name(), w, err)
			}
			el := time.Since(start)
			fmt.Printf("  %-12s workers=%d  %8.0f photons/sec  (%v, %d leaves)\n",
				eng.Name(), w, float64(res.Stats.PhotonsEmitted)/el.Seconds(),
				el.Round(time.Millisecond), res.Forest.TotalLeaves())
			if metricsPath != "" {
				reports = append(reports, sweepReport{Engine: eng.Name(), Workers: w, Report: cfg.Obs.Report()})
			}
		}
	}
	if metricsPath == "" {
		return nil
	}
	w := os.Stdout
	if metricsPath != "-" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"scene": sceneName, "photons": photons, "runs": reports})
}

// perfmodelValidate measures the distributed engine at 1, 2 and 4 ranks on
// this host and prints the measured speedup next to each 1997 platform
// model's prediction — internal/perfmodel consuming real timings instead
// of only generating virtual ones. The shapes, not the ratios, are the
// interesting column: the host is none of the modelled machines.
func perfmodelValidate(sceneName string, photons int64) error {
	ctor, err := scenes.ByName(sceneName)
	if err != nil {
		return err
	}
	sc, err := ctor()
	if err != nil {
		return err
	}
	sceneModel, err := perfmodel.SceneModelByName(sceneName)
	if err != nil {
		// Scenes without a workload model still validate against the
		// closest thing we have: the Cornell Box constants.
		sceneModel = perfmodel.CornellModel()
		fmt.Printf("note: %v; using the %s workload model\n", err, sceneModel.Name)
	}

	fmt.Printf("perfmodel validation: %s, %d photons per run, distributed engine at 1/2/4 ranks\n",
		sceneName, photons)
	var runs []perfmodel.Measured
	for _, ranks := range []int{1, 2, 4} {
		run := obs.NewRun()
		start := time.Now()
		res, err := engine.Distributed.Run(sc, engine.Config{
			Core: core.DefaultConfig(photons), Workers: ranks, Obs: run,
		})
		if err != nil {
			return fmt.Errorf("ranks=%d: %w", ranks, err)
		}
		el := time.Since(start).Seconds()
		rep := run.Report()
		runs = append(runs, perfmodel.Measured{
			Ranks:          ranks,
			WallSeconds:    el,
			Photons:        res.Stats.PhotonsEmitted,
			ImbalanceRatio: rep.Metrics["load_imbalance_tallies"],
			CommMessages:   res.Dist.Traffic.Messages,
			CommBytes:      res.Dist.Traffic.Bytes,
		})
		fmt.Printf("  measured ranks=%d  %8.0f photons/sec  (%.2fs, imbalance %.2f, %d msgs)\n",
			ranks, float64(res.Stats.PhotonsEmitted)/el, el,
			rep.Metrics["load_imbalance_tallies"], res.Dist.Traffic.Messages)
	}

	for _, platform := range perfmodel.Platforms() {
		rep, err := perfmodel.Validate(platform, sceneModel, runs)
		if err != nil {
			return err
		}
		fmt.Printf("\n  vs %s (%s workload):\n", rep.Platform, rep.Scene)
		fmt.Printf("    %5s  %9s  %9s  %6s\n", "ranks", "measured", "predicted", "ratio")
		for _, pt := range rep.Points {
			fmt.Printf("    %5d  %8.2fx  %8.2fx  %6.2f\n",
				pt.Ranks, pt.MeasuredSpeedup, pt.PredictedSpeedup, pt.Ratio)
		}
	}

	// The same comparison for the shared-memory engine's worker sweep: the
	// chapter-6 curves were drawn for message-passing ranks, but the model's
	// serial fraction and per-photon work terms apply to any parallelization
	// of the trace loop, so the shared wavefront engine is validated against
	// them too (comm terms are zero by construction).
	fmt.Printf("\nshared-memory scaling: %s, %d photons per run, shared engine at 1/2/4/8 workers (GOMAXPROCS=%d)\n",
		sceneName, photons, runtime.GOMAXPROCS(0))
	var sharedRuns []perfmodel.Measured
	for _, w := range benchutil.ScalingWorkers {
		run := obs.NewRun()
		start := time.Now()
		res, err := engine.Shared.Run(sc, engine.Config{
			Core: core.DefaultConfig(photons), Workers: w, Obs: run,
		})
		if err != nil {
			return fmt.Errorf("workers=%d: %w", w, err)
		}
		el := time.Since(start).Seconds()
		sharedRuns = append(sharedRuns, perfmodel.Measured{
			Ranks:          w,
			WallSeconds:    el,
			Photons:        res.Stats.PhotonsEmitted,
			ImbalanceRatio: workerImbalance(run.Report(), w),
		})
		fmt.Printf("  measured workers=%d  %8.0f photons/sec  (%.2fs)\n",
			w, float64(res.Stats.PhotonsEmitted)/el, el)
	}
	for _, platform := range perfmodel.Platforms() {
		rep, err := perfmodel.Validate(platform, sceneModel, sharedRuns)
		if err != nil {
			return err
		}
		fmt.Printf("\n  vs %s (%s workload):\n", rep.Platform, rep.Scene)
		fmt.Printf("    %7s  %9s  %9s  %6s\n", "workers", "measured", "predicted", "ratio")
		for _, pt := range rep.Points {
			fmt.Printf("    %7d  %8.2fx  %8.2fx  %6.2f\n",
				pt.Ranks, pt.MeasuredSpeedup, pt.PredictedSpeedup, pt.Ratio)
		}
	}
	return nil
}

// workerImbalance derives max/mean traced photons per worker from the
// shared engine's worker_photons series — the same residual term the
// distributed runs report via load_imbalance_tallies.
func workerImbalance(rep obs.Report, workers int) float64 {
	series := rep.Series["worker_photons"]
	if len(series) == 0 || workers <= 0 {
		return 0
	}
	var sum, maxv float64
	for _, v := range series {
		sum += v
		if v > maxv {
			maxv = v
		}
	}
	if sum == 0 {
		return 0
	}
	// Workers that stole no chunk at all still count toward the mean.
	return maxv / (sum / float64(workers))
}

// perfMeasurement is one row of the -json perf suite. Suite tags rows that
// belong to a sub-suite other than the report's own (the parallel-scaling
// sweep); Workers is the worker count the row was measured at (0 = serial
// single-thread); GOMAXPROCS records the scheduler width each individual
// result actually ran under, so a scaling row can never be mistaken for
// more parallelism than the host offered.
type perfMeasurement struct {
	Name       string  `json:"name"`
	Scene      string  `json:"scene"`
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	Suite      string  `json:"suite,omitempty"`
	Workers    int     `json:"workers,omitempty"`
	GOMAXPROCS int     `json:"gomaxprocs"`
}

// perfReport is the -json output: the intersection-hot-path numbers the
// perf trajectory tracks across PRs (committed as BENCH_PR<n>.json; diff
// two files to see the trend). The results carry only measurements and
// stable host facts, so reruns on one host differ only by noise; the
// timestamp/revision/hostname header records where each snapshot came
// from without entering any comparison.
type perfReport struct {
	Suite      string            `json:"suite"`
	Timestamp  string            `json:"timestamp"` // RFC 3339 wall-clock time of the run
	Revision   string            `json:"revision"`  // git commit the binary was built from ("" if unknown)
	Hostname   string            `json:"hostname"`
	Go         string            `json:"go"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Photons    int64             `json:"photons_per_run"`
	Results    []perfMeasurement `json:"results"`
}

// gitRevision reports the commit the binary was built from: the VCS stamp
// when `go build` embedded one, otherwise (e.g. `go run` from a work
// tree) a direct `git rev-parse HEAD`. Best effort — "" when neither
// source knows.
func gitRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// perfScenes is the default -json scene set: the shared trajectory scenes
// (see internal/benchutil; `go test -bench` reports the same workloads)
// plus the generated scale sweep, so the committed JSON tracks patch-count
// scaling alongside the fixed rooms.
var perfScenes = append(append([]string{}, benchutil.Scenes...), benchutil.ScaleSweep...)

// perfJSON measures, per bundled scene: octree build time (best of 5),
// single-thread closest-hit throughput over a fixed interior ray set, and
// single-thread end-to-end tracing throughput — plus the index shape, so
// layout changes are visible next to the throughput they buy.
func perfJSON(photons int64, sceneSet []string) error {
	hostname, _ := os.Hostname()
	rep := perfReport{
		Suite:     "intersection-hot-path",
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Revision:  gitRevision(),
		Hostname:  hostname,
		Go:        runtime.Version(),
		GOOS:      runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Photons: photons,
	}
	add := func(name, scene string, value float64, unit string) {
		rep.Results = append(rep.Results, perfMeasurement{
			Name: name, Scene: scene, Value: value, Unit: unit,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		})
	}
	addScaling := func(name, scene string, workers int, value float64, unit string) {
		rep.Results = append(rep.Results, perfMeasurement{
			Name: name, Scene: scene, Value: value, Unit: unit,
			Suite: "parallel-scaling", Workers: workers,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		})
	}
	for _, name := range sceneSet {
		ctor, err := scenes.ByName(name)
		if err != nil {
			return err
		}
		sc, err := ctor()
		if err != nil {
			return err
		}

		build := time.Duration(1 << 62)
		for i := 0; i < 5; i++ {
			start := time.Now()
			geom.BuildOctree(sc.Geom.Patches, geom.DefaultOctreeConfig())
			if el := time.Since(start); el < build {
				build = el
			}
		}
		add("octree-build", name, float64(build.Nanoseconds())/1e6, "ms")
		nodes, leaves, depth := sc.Geom.Octree().Stats()
		add("octree-nodes", name, float64(nodes), "nodes")
		add("octree-leaves", name, float64(leaves), "leaves")
		add("octree-depth", name, float64(depth), "levels")
		add("octree-memory", name, float64(sc.Geom.Octree().MemoryEstimate()), "bytes")

		rays := benchutil.Rays(sc.Geom, 1024)
		var h geom.Hit
		cast := 0
		start := time.Now()
		for time.Since(start) < 500*time.Millisecond {
			for i := 0; i < 4096; i++ {
				sc.Geom.Intersect(rays[cast&1023], &h)
				cast++
			}
		}
		add("octree-intersect", name, float64(cast)/time.Since(start).Seconds()/1e6, "Mrays/s")

		// Best-of-5 (the same idiom as octree-build above): at this photon
		// count a run lasts a few hundred milliseconds, and best-of strips
		// the scheduler's bad draws. core.Run traces through the wavefront
		// tracer at its default width, one thread.
		var waveRate float64
		for i := 0; i < 5; i++ {
			start = time.Now()
			res, err := core.Run(sc, core.DefaultConfig(photons))
			if err != nil {
				return err
			}
			if r := float64(res.Stats.PhotonsEmitted) / time.Since(start).Seconds(); r > waveRate {
				waveRate = r
			}
		}
		add("trace-wavefront", name, waveRate, "photons/s")

		if isTrajectoryScene(name) {
			if err := scalingSweep(sc, name, photons, addScaling); err != nil {
				return err
			}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// isTrajectoryScene reports whether name is one of the fixed trajectory
// scenes (the parallel-scaling sweep runs only on those, not on the
// patch-count scale sweep).
func isTrajectoryScene(name string) bool {
	for _, s := range benchutil.Scenes {
		if s == name {
			return true
		}
	}
	return false
}

// scalingSweep measures the shared engine (wavefront batched) at each
// trajectory worker width and emits the parallel-scaling rows: absolute
// photons/s, efficiency versus linear scaling of the 1-worker rate, and
// Mrays/s-per-core (rays cast = path segments + escapes, normalized by
// width). On a host whose GOMAXPROCS is below a width the curve goes flat
// by construction — the per-result gomaxprocs field is what keeps that
// honest in the committed JSON.
func scalingSweep(sc *scenes.Scene, name string, photons int64, addScaling func(name, scene string, workers int, value float64, unit string)) error {
	var baseRate float64
	for _, w := range benchutil.ScalingWorkers {
		start := time.Now()
		res, err := engine.Shared.Run(sc, engine.Config{
			Core: core.DefaultConfig(photons), Workers: w,
		})
		if err != nil {
			return fmt.Errorf("scaling %s w=%d: %w", name, w, err)
		}
		el := time.Since(start).Seconds()
		rate := float64(res.Stats.PhotonsEmitted) / el
		rays := float64(res.Stats.TotalPathLength + res.Stats.Escapes)
		addScaling("scaling-photons-per-sec", name, w, rate, "photons/s")
		if w == 1 {
			baseRate = rate
		}
		if baseRate > 0 {
			addScaling("scaling-efficiency", name, w, (rate/baseRate)/float64(w), "x")
		}
		addScaling("scaling-mrays-per-core", name, w, rays/el/1e6/float64(w), "Mrays/s/core")
	}
	return nil
}

func printResult(r *experiments.Result, elapsed time.Duration) {
	fmt.Printf("==== %s ====\n", r.ID)
	fmt.Println(r.Text)
	if elapsed > 0 {
		fmt.Printf("(%v)\n", elapsed.Round(time.Millisecond))
	}
	fmt.Println()
}
