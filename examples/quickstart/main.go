// Quickstart: simulate a small room, save the answer, reload it, and render
// a PNG — the complete Photon pipeline in one page of code.
package main

import (
	"flag"
	"fmt"
	"log"

	photon "repro"
)

func main() {
	log.SetFlags(0)

	// Explicit fixed seed: the run is deterministic, so the answer file
	// and image are reproducible bit-for-bit (the smoke test relies on
	// this, and on -photons to stay fast).
	var (
		photons = flag.Int64("photons", 300000, "photons to emit")
		seed    = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	// 1. Build a scene (a small white room with one ceiling light).
	scene, err := photon.SceneByName("quickstart")
	if err != nil {
		log.Fatal(err)
	}

	// 2. Simulate: emit photons, trace them to absorption, accumulate the
	//    view-independent radiance database. The progress callback streams
	//    completion while the engine runs.
	lastPct := int64(-1)
	sol, err := photon.Simulate(scene, photon.Config{
		Photons: *photons,
		Seed:    *seed,
		Engine:  photon.EngineShared,
		Workers: 4,
		Progress: func(done, total int64) {
			if pct := done * 100 / total; pct >= lastPct+10 {
				lastPct = pct
				fmt.Printf("  traced %3d%% (%d/%d photons)\n", pct, done, total)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	st := sol.Stats()
	fmt.Printf("simulated %d photons, %d reflections, %d adaptive bin splits\n",
		st.PhotonsEmitted, st.Reflections, st.BinSplits)

	// 3. Persist the answer. Viewing is a separate stage: "It is much like
	//    turning on the lights in a room and then walking in."
	if err := sol.SaveFile("quickstart.pbf"); err != nil {
		log.Fatal(err)
	}

	// 4. Reload and render from an arbitrary viewpoint.
	loaded, err := photon.LoadFile("quickstart.pbf")
	if err != nil {
		log.Fatal(err)
	}
	scene2, err := loaded.Scene()
	if err != nil {
		log.Fatal(err)
	}
	//    The tile renderer is parallel like the simulation: 4 workers and
	//    2×2 supersampling, with an image that is bit-identical at any
	//    worker count (per-pixel deterministic jitter substreams).
	img, err := photon.Render(scene2, loaded, photon.Camera{
		Eye:    photon.V(2, 0.3, 1.5),
		LookAt: photon.V(2, 4, 1.2),
		Up:     photon.V(0, 0, 1),
		FovY:   70, Width: 320, Height: 240,
	}, photon.RenderOptions{Workers: 4, Samples: 2, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	if err := photon.WritePNGFile("quickstart.png", img); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote quickstart.pbf and quickstart.png")
}
