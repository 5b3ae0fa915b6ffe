// photon-view renders a PNG from a Photon answer file — any viewpoint,
// no recomputation (the paper's two-stage pipeline, Figure 4.9/4.10).
// Answers computed on generated scenes (photon-sim -scene gen:...) load
// like any other: the canonical spec stored in the file rebuilds the
// identical geometry.
//
// Usage:
//
//	photon-view -answer cornell.pbf -eye 2.75,0.4,2.75 -lookat 2.75,5,2.75 -o view.png
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	photon "repro"
)

func parseVec(s string) (photon.Vec3, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return photon.Vec3{}, fmt.Errorf("want x,y,z, got %q", s)
	}
	var v [3]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return photon.Vec3{}, err
		}
		v[i] = f
	}
	return photon.V(v[0], v[1], v[2]), nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("photon-view: ")

	var (
		answerPath = flag.String("answer", "answer.pbf", "answer file from photon-sim")
		eye        = flag.String("eye", "2,0.3,1.5", "camera position x,y,z")
		lookat     = flag.String("lookat", "2,4,1.2", "look-at point x,y,z")
		up         = flag.String("up", "0,0,1", "up vector x,y,z")
		fov        = flag.Float64("fov", 65, "vertical field of view (degrees)")
		width      = flag.Int("width", 640, "image width")
		height     = flag.Int("height", 480, "image height")
		exposure   = flag.Float64("exposure", 0, "exposure (0 = auto)")
		workers    = flag.Int("render-workers", 0, "tile-render workers (0 = GOMAXPROCS); output is identical at any count")
		samples    = flag.Int("samples", 1, "per-axis supersampling: samples² jittered rays per pixel")
		sampleSeed = flag.Int64("sample-seed", 1, "seed for the supersampling jitter substreams")
		out        = flag.String("o", "view.png", "output PNG")
	)
	flag.Parse()

	sol, err := photon.LoadFile(*answerPath)
	if err != nil {
		log.Fatal(err)
	}
	scene, err := sol.Scene()
	if err != nil {
		log.Fatal(err)
	}
	eyeV, err := parseVec(*eye)
	if err != nil {
		log.Fatalf("-eye: %v", err)
	}
	lookV, err := parseVec(*lookat)
	if err != nil {
		log.Fatalf("-lookat: %v", err)
	}
	upV, err := parseVec(*up)
	if err != nil {
		log.Fatalf("-up: %v", err)
	}

	cam := photon.Camera{
		Eye: eyeV, LookAt: lookV, Up: upV,
		FovY: *fov, Width: *width, Height: *height,
	}
	start := time.Now()
	img, err := photon.Render(scene, sol, cam, photon.RenderOptions{
		Exposure: *exposure,
		Workers:  *workers,
		Samples:  *samples,
		Seed:     *sampleSeed,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rendered %dx%d from %s (%d photons) in %v\n",
		*width, *height, sol.SceneName(), sol.EmittedPhotons(),
		time.Since(start).Round(time.Millisecond))

	// WritePNGFile surfaces the Close error too — on many filesystems that
	// is where a failed write actually reports.
	if err := photon.WritePNGFile(*out, img); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}
