// photon-bench regenerates the paper's tables and figures (chapter 5 and
// the HPDC'97 appendix), printing the same rows and series the paper
// reports, and validates the platform models against this host.
//
// Usage:
//
//	photon-bench              # run everything, paper order
//	photon-bench -list        # list experiment ids
//	photon-bench -run fig-5.4 # run one experiment
//	photon-bench -perfmodel   # measured speedup vs the platform models
//
// -scene accepts built-in names and generator specs
// (gen:<family>/seed=N/param=value/..., see internal/scenegen). Engine
// throughput on this host is measured by the benchmark (bench/README.md).
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/scenes"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("photon-bench: ")

	var (
		list      = flag.Bool("list", false, "list experiment ids and exit")
		run       = flag.String("run", "", "run a single experiment by id")
		photons   = flag.Int64("photons", 50000, "photons per -perfmodel run")
		scene     = flag.String("scene", "cornell-box", "scene for -perfmodel; built-in name or gen: spec")
		perfValid = flag.Bool("perfmodel", false, "measure the distributed engine at 1/2/4 ranks and compare with the platform models")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
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
			Ranks:       ranks,
			WallSeconds: el,
			Photons:     res.Stats.PhotonsEmitted,
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
	for _, w := range []int{1, 2, 4, 8} {
		start := time.Now()
		res, err := engine.Shared.Run(sc, engine.Config{
			Core: core.DefaultConfig(photons), Workers: w,
		})
		if err != nil {
			return fmt.Errorf("workers=%d: %w", w, err)
		}
		el := time.Since(start).Seconds()
		sharedRuns = append(sharedRuns, perfmodel.Measured{
			Ranks:       w,
			WallSeconds: el,
			Photons:     res.Stats.PhotonsEmitted,
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

func printResult(r *experiments.Result, elapsed time.Duration) {
	fmt.Printf("==== %s ====\n", r.ID)
	fmt.Println(r.Text)
	if elapsed > 0 {
		fmt.Printf("(%v)\n", elapsed.Round(time.Millisecond))
	}
	fmt.Println()
}
