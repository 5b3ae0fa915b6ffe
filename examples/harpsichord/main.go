// Harpsichord Practice Room: the paper's sunlight demonstration
// (Figure 4.7). The skylights carry two kinds of luminaire: a collimated
// "sun" panel (quarter-degree cone, the paper's 0.005 circle scaling) and a
// diffuse "sky" panel. The collimated sun produces shadows that sharpen as
// the occluder approaches the floor — the physically-correct behaviour most
// renderers' point-light suns cannot produce.
//
// The example quantifies the effect by probing the floor across the shadow
// of the harpsichord body (occluder ~0.75 m above floor: fuzzy edge) and
// across the skylight frame's shadow (occluder 3.5 m up: fuzzier still),
// then renders the room.
package main

import (
	"flag"
	"fmt"
	"log"

	photon "repro"
)

func main() {
	log.SetFlags(0)
	photons := flag.Int64("photons", 1200000, "photons to emit")
	flag.Parse()

	scene, err := photon.SceneByName("harpsichord-room")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Harpsichord Practice Room: %d defining polygons, %d luminaires (sun + sky per skylight)\n",
		scene.DefiningPolygons(), len(scene.Geom.Luminaires))

	sol, err := photon.Simulate(scene, photon.Config{
		Photons: *photons,
		Seed:    1, // explicit: the shadow profile below is reproducible
		Engine:  photon.EngineShared,
		Workers: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	st := sol.Stats()
	fmt.Printf("traced %d photons (%d reflections)\n", st.PhotonsEmitted, st.Reflections)

	// Probe the floor's stored irradiance (straight-up radiance) along a
	// line crossing under the harpsichord: the transition from lit to
	// shadowed floor is gradual, not a step.
	fmt.Println("\nfloor radiance crossing the harpsichord shadow (y = 0.9..2.3 at x = 4.2):")
	floorPatch := 0
	for i := 0; i <= 14; i++ {
		y := 0.9 + float64(i)*0.1
		// Floor patch params: the floor spans 8 x 6 m from the origin.
		s := 4.2 / 8.0
		tt := y / 6.0
		rad, err := sol.Radiance(scene, floorPatch, s, tt, 0.05, 1)
		if err != nil {
			log.Fatal(err)
		}
		bar := ""
		for j := 0; j < int(rad.Luminance()*400) && j < 60; j++ {
			bar += "#"
		}
		fmt.Printf("  y=%.1f  L=%8.4f %s\n", y, rad.Luminance(), bar)
	}

	cam := photon.Camera{
		Eye:    photon.V(6.8, 0.7, 1.9),
		LookAt: photon.V(3.2, 3.6, 1.0),
		Up:     photon.V(0, 0, 1),
		FovY:   65, Width: 400, Height: 300,
	}
	img, err := photon.Render(scene, sol, cam, photon.RenderOptions{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	if err := photon.WritePNGFile("harpsichord.png", img); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote harpsichord.png (note the mirrored music shelf and soft skylight shadows)")
}
