package photon

// The render-stage conformance matrix — the stage-two counterpart of
// photon_conformance_test.go. The tile-parallel viewer must produce
// BYTE-IDENTICAL PNGs at any worker count, for every bundled scene, both
// with the single center ray and with jittered supersampling: every
// pixel's value is a pure function of the camera, the answer forest and
// (seed, pixel index), so the tile schedule cannot leak into the image.
// Combined with the engine conformance matrix this closes the pipeline:
// same Config ⇒ same answer ⇒ same bytes on screen, no matter how either
// stage is parallelized.

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/scenes"
	"repro/internal/view"
)

// sceneCamera frames each bundled scene from inside its geometry.
func sceneCamera(name string) Camera {
	cam := Camera{Up: V(0, 0, 1), FovY: 70, Width: 64, Height: 48}
	switch name {
	case "computer-lab":
		cam.Eye, cam.LookAt = V(14.5, 1.0, 2.2), V(6, 8, 0.8)
	case "harpsichord-room":
		cam.Eye, cam.LookAt = V(6.8, 0.7, 1.9), V(3.2, 3.6, 1.0)
	case "cornell-box":
		cam.Eye, cam.LookAt = V(2.75, 0.4, 2.75), V(2.75, 5, 2.75)
	default: // quickstart
		cam.Eye, cam.LookAt = V(2, 0.3, 1.5), V(2, 4, 1.2)
	}
	return cam
}

// renderPNG renders to PNG bytes with fixed exposure so the comparison is
// over the full tone-mapped output.
func renderPNG(t *testing.T, sc *scenes.Scene, res *core.Result, cam Camera, opts RenderOptions) []byte {
	t.Helper()
	opts.Exposure = 2
	img, err := view.Render(sc, res.Forest, cam, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePNG(&buf, img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRenderWorkerConformance: same camera + answer ⇒ byte-identical PNG
// at 1, 2 and 8 render workers, with and without supersampling, on every
// bundled scene. Workers=1 is the serial pixel loop, so equality here is
// the claim that the parallel tile renderer computes exactly what the
// serial renderer did.
func TestRenderWorkerConformance(t *testing.T) {
	for _, name := range SceneNames() {
		t.Run(name, func(t *testing.T) {
			sc, err := SceneByName(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Run(sc, core.DefaultConfig(2000))
			if err != nil {
				t.Fatal(err)
			}
			cam := sceneCamera(name)
			for _, samples := range []int{1, 2} {
				ref := renderPNG(t, sc, res, cam, RenderOptions{Workers: 1, Samples: samples})
				for _, workers := range []int{2, 8} {
					got := renderPNG(t, sc, res, cam, RenderOptions{Workers: workers, Samples: samples})
					if !bytes.Equal(ref, got) {
						t.Errorf("samples=%d: %d-worker render diverges from the serial pixel loop",
							samples, workers)
					}
				}
			}
		})
	}
}

// TestRenderSupersampleSeeds: the jitter substreams are deterministic per
// (seed, pixel) — the same seed reproduces the same bytes at any worker
// count, and different seeds actually jitter differently.
func TestRenderSupersampleSeeds(t *testing.T) {
	sc, err := SceneByName("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(sc, core.DefaultConfig(4000))
	if err != nil {
		t.Fatal(err)
	}
	cam := sceneCamera("quickstart")
	bySeed := make(map[int64][]byte)
	for _, seed := range []int64{1, 9} {
		ref := renderPNG(t, sc, res, cam, RenderOptions{Workers: 1, Samples: 3, Seed: seed})
		for _, workers := range []int{2, 8} {
			got := renderPNG(t, sc, res, cam, RenderOptions{Workers: workers, Samples: 3, Seed: seed})
			if !bytes.Equal(ref, got) {
				t.Errorf("seed=%d: %d-worker supersampled render not reproducible", seed, workers)
			}
		}
		bySeed[seed] = ref
	}
	if bytes.Equal(bySeed[1], bySeed[9]) {
		t.Error("different supersample seeds produced identical images: jitter not seeded")
	}
}

// TestRenderSolutionRoundTrip: the public API path — simulate, save, load,
// render — produces the same bytes as rendering the in-memory solution,
// and the loaded solution's recoverable stats survive the trip.
func TestRenderSolutionRoundTrip(t *testing.T) {
	sc, err := SceneByName("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Simulate(sc, Config{Photons: 3000})
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := sol.Save(&file); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&file)
	if err != nil {
		t.Fatal(err)
	}

	st, lst := sol.Stats(), loaded.Stats()
	if lst.PhotonsEmitted != st.PhotonsEmitted {
		t.Errorf("loaded PhotonsEmitted = %d, want %d", lst.PhotonsEmitted, st.PhotonsEmitted)
	}
	if lst.Reflections != st.Reflections {
		t.Errorf("loaded Reflections = %d, want %d", lst.Reflections, st.Reflections)
	}
	if lst.BinSplits != st.BinSplits {
		t.Errorf("loaded BinSplits = %d, want %d", lst.BinSplits, st.BinSplits)
	}
	// Documented as non-recoverable: must read zero, not garbage.
	if lst.Absorptions != 0 || lst.Escapes != 0 || lst.TotalPathLength != 0 {
		t.Errorf("non-recoverable counters not zero: %+v", lst)
	}

	cam := sceneCamera("quickstart")
	opts := RenderOptions{Exposure: 2, Workers: 4, Samples: 2}
	a, err := Render(sc, sol, cam, opts)
	if err != nil {
		t.Fatal(err)
	}
	lsc, err := loaded.Scene()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Render(lsc, loaded, cam, opts)
	if err != nil {
		t.Fatal(err)
	}
	var pa, pb bytes.Buffer
	if err := WritePNG(&pa, a); err != nil {
		t.Fatal(err)
	}
	if err := WritePNG(&pb, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pa.Bytes(), pb.Bytes()) {
		t.Error("rendering a reloaded answer diverges from the in-memory answer")
	}
}

// TestRenderWorkerCountsAreHarmless: worker counts far beyond the tile
// count (and far beyond the host) neither fail nor change the image.
func TestRenderWorkerCountsAreHarmless(t *testing.T) {
	sc, err := SceneByName("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(sc, core.DefaultConfig(1000))
	if err != nil {
		t.Fatal(err)
	}
	cam := sceneCamera("quickstart")
	cam.Width, cam.Height = 33, 17 // ragged tiles: 2×1 grid with partial edges
	ref := renderPNG(t, sc, res, cam, RenderOptions{Workers: 1})
	for _, workers := range []int{3, 64, 1000} {
		got := renderPNG(t, sc, res, cam, RenderOptions{Workers: workers})
		if !bytes.Equal(ref, got) {
			t.Errorf("workers=%d diverges on ragged tile grid", workers)
		}
	}
}
