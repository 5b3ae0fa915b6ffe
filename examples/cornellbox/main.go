// Cornell Box: the paper's mirror demonstration (Figures 4.8 and 4.10).
// One simulation of the box with its floating mirror; four different
// viewpoints rendered from the same answer file with zero recomputation —
// including views in which the mirror is seen from different angles, which
// a radiosity answer cannot do and a ray tracer must recompute.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	photon "repro"
)

func main() {
	log.SetFlags(0)
	photons := flag.Int64("photons", 800000, "photons to emit")
	flag.Parse()

	scene, err := photon.SceneByName("cornell-box")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Cornell Box: %d defining polygons (mirror floats in the centre)\n",
		scene.DefiningPolygons())

	simStart := time.Now()
	sol, err := photon.Simulate(scene, photon.Config{
		Photons: *photons,
		Seed:    1, // explicit: the four views below are reproducible
		Engine:  photon.EngineShared,
		Workers: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulation: %v (%d view-dependent bins)\n",
		time.Since(simStart).Round(time.Millisecond), sol.Leaves())

	views := []struct {
		name string
		cam  photon.Camera
	}{
		{"front", photon.Camera{
			Eye: photon.V(2.75, 0.4, 2.75), LookAt: photon.V(2.75, 5, 2.75)}},
		{"high", photon.Camera{
			Eye: photon.V(0.6, 0.6, 4.8), LookAt: photon.V(4, 4, 1)}},
		{"side", photon.Camera{
			Eye: photon.V(4.9, 0.6, 1.2), LookAt: photon.V(1, 5, 2.5)}},
		{"mirror", photon.Camera{
			Eye: photon.V(2.75, 1.2, 0.8), LookAt: photon.V(2.4, 3.2, 2.3)}},
	}
	for _, v := range views {
		v.cam.Up = photon.V(0, 0, 1)
		v.cam.FovY = 65
		v.cam.Width, v.cam.Height = 320, 240
		t0 := time.Now()
		img, err := photon.Render(scene, sol, v.cam,
			photon.RenderOptions{Workers: 4})
		if err != nil {
			log.Fatal(err)
		}
		name := fmt.Sprintf("cornell-%s.png", v.name)
		if err := photon.WritePNGFile(name, img); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s rendered in %v (no recomputation)\n",
			name, time.Since(t0).Round(time.Millisecond))
	}
}
