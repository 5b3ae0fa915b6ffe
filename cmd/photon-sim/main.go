// photon-sim runs a Photon global illumination simulation and writes the
// answer file. All four engines are driven through the one internal
// engine.Engine interface, with live progress reporting.
//
// Usage:
//
//	photon-sim -scene cornell-box -photons 1000000 -engine shared -workers 8 -o cornell.pbf
//	photon-sim -scene gen:office/seed=42/rooms=2/density=0.7 -photons 500000 -o office.pbf
//
// -scene accepts built-in names and generator specs
// (gen:<family>/seed=N/param=value/...); generated scenes are
// deterministic, so the answer file's stored spec rebuilds the exact
// geometry at view time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	photon "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("photon-sim: ")

	var (
		sceneName = flag.String("scene", "quickstart",
			"scene: "+strings.Join(photon.SceneNames(), ", ")+
				", or a generator spec gen:<family>/seed=N/... (families: "+
				strings.Join(photon.GenFamilies(), ", ")+")")
		photons     = flag.Int64("photons", 200000, "photons to emit")
		engineName  = flag.String("engine", "serial", "engine: serial, shared, distributed, geo")
		workers     = flag.Int("workers", 4, "workers (shared) or ranks (distributed, geo)")
		batch       = flag.Int("batch", 0, "photons per exchange round (distributed, geo; serial and shared ignore it); 0 = the engine's default, 500 (distributed) or 2000 (geo), applied by internal/dist")
		seed        = flag.Int64("seed", 1, "random seed")
		quiet       = flag.Bool("q", false, "suppress the progress line")
		out         = flag.String("o", "answer.pbf", "output answer file")
		metricsJSON = flag.String("metrics-json", "", "write the run's span/metric report as JSON to this file (- for stdout)")
	)
	flag.Parse()

	scene, err := photon.SceneByName(*sceneName)
	if err != nil {
		log.Fatal(err)
	}
	if *engineName == "dist" { // long-standing CLI alias
		*engineName = "distributed"
	}
	eng, err := engine.ByName(*engineName)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("scene %s: %d defining polygons, %d luminaires\n",
		scene.Name, scene.DefiningPolygons(), len(scene.Geom.Luminaires))
	fmt.Printf("tracing %d photons on the %s engine (%d workers)...\n", *photons, eng.Name(), *workers)

	coreCfg := core.DefaultConfig(*photons)
	coreCfg.Seed = *seed
	cfg := engine.Config{
		Core:      coreCfg,
		Workers:   *workers,
		BatchSize: *batch,
	}
	if *metricsJSON != "" {
		cfg.Obs = obs.NewRun()
	}
	if !*quiet {
		cfg.Progress = func(done, total int64) {
			fmt.Printf("\r  traced %3d%% (%d/%d)", done*100/total, done, total)
			if done == total {
				fmt.Println()
			}
		}
	}

	start := time.Now()
	res, err := eng.Run(scene, cfg)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	sol := photon.SolutionFromResult(res.Result)

	st := res.Stats
	fmt.Printf("done in %v (%.0f photons/sec)\n", elapsed.Round(time.Millisecond),
		float64(st.PhotonsEmitted)/elapsed.Seconds())
	fmt.Printf("  reflections: %d  (mean path %.2f)\n", st.Reflections, st.MeanPathLength())
	fmt.Printf("  bin splits:  %d  (%d view-dependent bins, %.2f MB)\n",
		st.BinSplits, sol.Leaves(), float64(sol.MemoryBytes())/1e6)
	if d := res.Dist; d != nil {
		fmt.Printf("  distribution: %d messages, %.2f MB traffic", d.Traffic.Messages,
			float64(d.Traffic.Bytes)/1e6)
		if d.Forwards > 0 {
			fmt.Printf(", %d inter-region photon forwards", d.Forwards)
		}
		fmt.Println()
	}

	if err := sol.SaveFile(*out); err != nil {
		log.Fatal(err)
	}
	fi, err := os.Stat(*out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("answer written to %s (%.2f MB)\n", *out, float64(fi.Size())/1e6)

	if *metricsJSON != "" {
		if err := writeMetricsJSON(*metricsJSON, cfg.Obs.Report()); err != nil {
			log.Fatal(err)
		}
	}
}

// writeMetricsJSON dumps the run report to path, or stdout for "-".
func writeMetricsJSON(path string, rep obs.Report) error {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
