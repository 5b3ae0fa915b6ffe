// Computer Laboratory: the paper's large-scene distributed run. The
// ~2000-polygon lab is simulated on the distributed engine (in-process
// message-passing ranks standing in for MPI), demonstrating the
// load-balancing pre-phase, the partitioned bin forest, and the batched
// all-to-all tally exchange of Figure 5.3 — with per-rank work statistics
// like Table 5.2's.
//
// Unlike the other examples it drives the internal engine interface
// directly, because the per-rank telemetry it prints is engine-level.
package main

import (
	"flag"
	"fmt"
	"log"

	photon "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/scenes"
)

func main() {
	log.SetFlags(0)
	photons := flag.Int64("photons", 400000, "photons to emit")
	flag.Parse()

	scene, err := scenes.ComputerLab()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Computer Laboratory: %d defining polygons, %d ceiling lights\n",
		scene.DefiningPolygons(), len(scene.Geom.Luminaires))

	const ranks = 8
	coreCfg := core.DefaultConfig(*photons)
	coreCfg.Seed = 1 // explicit: the per-rank table below is reproducible
	sol, err := engine.Distributed.Run(scene, engine.Config{
		Core:    coreCfg,
		Workers: ranks,
	})
	if err != nil {
		log.Fatal(err)
	}
	res := sol.Dist

	fmt.Printf("\nper-rank work (Best-Fit bin-packed ownership, %d forest sections):\n",
		len(res.Owners))
	for _, rs := range res.PerRank {
		fmt.Printf("  rank %d: traced %6d photons, applied %7d tallies, forwarded %7d, %d batches\n",
			rs.Rank, rs.PhotonsTraced, rs.TalliesApplied, rs.TalliesForwarded, rs.Batches)
	}
	fmt.Printf("message traffic: %d messages, %.2f MB\n",
		res.Traffic.Messages, float64(res.Traffic.Bytes)/1e6)
	fmt.Printf("load balance max/mean: %.3f\n", res.Balance.Imbalance())

	// The assembled forest is a normal answer: render it.
	cam := photon.Camera{
		Eye:    photon.V(14.5, 1.0, 2.2),
		LookAt: photon.V(6, 8, 0.8),
		Up:     photon.V(0, 0, 1),
		FovY:   70, Width: 400, Height: 300,
	}
	img, err := photon.Render(scene, photon.SolutionFromResult(sol.Result), cam,
		photon.RenderOptions{Workers: 4, Samples: 2})
	if err != nil {
		log.Fatal(err)
	}
	if err := photon.WritePNGFile("complab.png", img); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote complab.png")
}
