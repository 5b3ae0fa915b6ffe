package view

import (
	"bytes"
	"image"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/scenes"
	"repro/internal/vecmath"
)

func renderQuickstart(t testing.TB, photons int64, seed int64) (*scenes.Scene, *image.RGBA) {
	t.Helper()
	s, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(photons)
	cfg.Seed = seed
	res, err := core.Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cam := Camera{
		Eye: vecmath.V(2, 0.3, 1.5), LookAt: vecmath.V(2, 4, 1.2),
		Up: vecmath.V(0, 0, 1), FovY: 70, Width: 80, Height: 60,
	}
	img, err := Render(s, res.Forest, cam, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, img
}

func TestCameraValidate(t *testing.T) {
	bad := []Camera{
		{Width: 0, Height: 10, FovY: 60, LookAt: vecmath.V(1, 0, 0)},
		{Width: 10, Height: 10, FovY: 0, LookAt: vecmath.V(1, 0, 0)},
		{Width: 10, Height: 10, FovY: 200, LookAt: vecmath.V(1, 0, 0)},
		{Width: 10, Height: 10, FovY: 60}, // eye == lookat
		// Pixel-product bound, including a pair whose product overflows
		// 32-bit ints: must reject, not wrap (or panic downstream).
		{Width: 1 << 20, Height: 1 << 20, FovY: 60, LookAt: vecmath.V(1, 0, 0)},
		{Width: 1 << 31, Height: 1 << 31, FovY: 60, LookAt: vecmath.V(1, 0, 0)},
		// Non-finite values: every comparison with NaN is false.
		{Width: 10, Height: 10, FovY: math.NaN(), LookAt: vecmath.V(1, 0, 0)},
		{Width: 10, Height: 10, FovY: 60, Eye: vecmath.V(math.NaN(), 1, 1), LookAt: vecmath.V(1, 0, 0)},
		{Width: 10, Height: 10, FovY: 60, LookAt: vecmath.V(1, math.Inf(1), 0)},
		{Width: 10, Height: 10, FovY: 60, LookAt: vecmath.V(1, 0, 0), Up: vecmath.V(0, 0, math.Inf(-1))},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("camera %d accepted: %+v", i, c)
		}
	}
	good := Camera{Width: 10, Height: 10, FovY: 60, LookAt: vecmath.V(1, 0, 0)}
	if err := good.Validate(); err != nil {
		t.Errorf("good camera rejected: %v", err)
	}
}

func TestRenderProducesLight(t *testing.T) {
	_, img := renderQuickstart(t, 60000, 1)
	if img.Bounds().Dx() != 80 || img.Bounds().Dy() != 60 {
		t.Fatalf("bounds = %v", img.Bounds())
	}
	mean := MeanLuminance(img, img.Bounds())
	if mean < 5 {
		t.Fatalf("image nearly black: mean luminance %v", mean)
	}
	if mean > 250 {
		t.Fatalf("image blown out: mean luminance %v", mean)
	}
}

func TestRenderDeterministic(t *testing.T) {
	_, a := renderQuickstart(t, 20000, 1)
	_, b := renderQuickstart(t, 20000, 1)
	d, err := RMSE(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("same answer rendered differently: RMSE %v", d)
	}
}

func TestErrorToReferenceDecreasesWithPhotons(t *testing.T) {
	// More photons in the answer means an image closer to a converged
	// reference: the visual-speedup effect of Figure 5.16. Fixed exposure so
	// RMSE measures answer quality, not auto-exposure drift.
	s, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	cam := Camera{
		Eye: vecmath.V(2, 0.3, 1.5), LookAt: vecmath.V(2, 4, 1.2),
		Up: vecmath.V(0, 0, 1), FovY: 70, Width: 64, Height: 48,
	}
	opts := Options{Exposure: 2}
	render := func(photons, seed int64) *image.RGBA {
		cfg := core.DefaultConfig(photons)
		cfg.Seed = seed
		res, err := core.Run(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		img, err := Render(s, res.Forest, cam, opts)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	// The low count must be far below the high one: RMSE between two
	// adaptive binnings has a layout-noise floor (~4 here) that photon
	// count cannot push through, so nearby counts compare within noise.
	ref := render(600000, 9)
	lo := render(500, 1)
	hi := render(150000, 2)
	dLo, err := RMSE(lo, ref)
	if err != nil {
		t.Fatal(err)
	}
	dHi, err := RMSE(hi, ref)
	if err != nil {
		t.Fatal(err)
	}
	if dHi >= dLo {
		t.Fatalf("quality did not improve: RMSE-to-reference %v at 8k photons, %v at 150k", dLo, dHi)
	}
}

func TestCeilingBrighterThanFloorShadows(t *testing.T) {
	// Looking up at the light panel must be brighter than the room average.
	s, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(s, core.DefaultConfig(80000))
	if err != nil {
		t.Fatal(err)
	}
	camUp := Camera{
		Eye: vecmath.V(2, 2, 0.5), LookAt: vecmath.V(2, 2, 3),
		Up: vecmath.V(0, 1, 0), FovY: 60, Width: 40, Height: 40,
	}
	img, err := Render(s, res.Forest, camUp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	centre := MeanLuminance(img, image.Rect(15, 15, 25, 25))
	edge := MeanLuminance(img, image.Rect(0, 0, 8, 8))
	if centre <= edge {
		t.Fatalf("light panel (%v) not brighter than ceiling edge (%v)", centre, edge)
	}
}

// TestCameraBasisOrthonormal: every basis — including degenerate Up — is
// right-handed orthonormal with w the view direction.
func TestCameraBasisOrthonormal(t *testing.T) {
	cams := []Camera{
		{Eye: vecmath.V(2, 0.3, 1.5), LookAt: vecmath.V(2, 4, 1.2), Up: vecmath.V(0, 0, 1)},
		{Eye: vecmath.V(1, 1, 1), LookAt: vecmath.V(4, 2, 3)},                            // zero Up: defaults to +Z
		{Eye: vecmath.V(2, 2, 0.5), LookAt: vecmath.V(2, 2, 3), Up: vecmath.V(0, 0, 1)},  // straight up
		{Eye: vecmath.V(2, 2, 2.5), LookAt: vecmath.V(2, 2, 0), Up: vecmath.V(0, 0, 1)},  // straight down
		{Eye: vecmath.V(0, 0, 0), LookAt: vecmath.V(3, 0, 0), Up: vecmath.V(1, 0, 0)},    // Up ∥ view, off-axis
		{Eye: vecmath.V(0, 0, 0), LookAt: vecmath.V(1, 1, 1), Up: vecmath.V(-2, -2, -2)}, // anti-parallel Up
	}
	const eps = 1e-12
	for i, c := range cams {
		u, v, w := c.Basis()
		wantW := c.LookAt.Sub(c.Eye).Norm()
		if w.Sub(wantW).Len() > eps {
			t.Errorf("camera %d: w = %v, want view direction %v", i, w, wantW)
		}
		for name, pair := range map[string][2]vecmath.Vec3{
			"u·v": {u, v}, "u·w": {u, w}, "v·w": {v, w},
		} {
			if d := pair[0].Dot(pair[1]); math.Abs(d) > eps {
				t.Errorf("camera %d: %s = %v, want 0", i, name, d)
			}
		}
		for name, vec := range map[string]vecmath.Vec3{"u": u, "v": v, "w": w} {
			if math.Abs(vec.Len()-1) > eps {
				t.Errorf("camera %d: |%s| = %v, want 1", i, name, vec.Len())
			}
		}
	}
}

// TestCameraDegenerateUpDeterministic: straight-up and straight-down
// cameras (view ∥ Up) must produce a fixed, documented basis — the world
// axis least aligned with the view direction — not an arbitrary roll.
func TestCameraDegenerateUpDeterministic(t *testing.T) {
	up := Camera{Eye: vecmath.V(2, 2, 0.5), LookAt: vecmath.V(2, 2, 3), Up: vecmath.V(0, 0, 1)}
	u, v, w := up.Basis()
	// w = +Z; the least-aligned axis is X (ties break to the lower index),
	// so u = Z×X = +Y and v = u×w = +X.
	if w.Sub(vecmath.V(0, 0, 1)).Len() > 1e-12 ||
		u.Sub(vecmath.V(0, 1, 0)).Len() > 1e-12 ||
		v.Sub(vecmath.V(1, 0, 0)).Len() > 1e-12 {
		t.Errorf("straight-up basis not the documented fallback: u=%v v=%v w=%v", u, v, w)
	}
	down := Camera{Eye: vecmath.V(2, 2, 2.5), LookAt: vecmath.V(2, 2, 0), Up: vecmath.V(0, 0, 1)}
	du, dv, dw := down.Basis()
	if dw.Sub(vecmath.V(0, 0, -1)).Len() > 1e-12 ||
		du.Sub(vecmath.V(0, -1, 0)).Len() > 1e-12 ||
		dv.Sub(vecmath.V(1, 0, 0)).Len() > 1e-12 {
		t.Errorf("straight-down basis not the documented fallback: u=%v v=%v w=%v", du, dv, dw)
	}
}

// TestRenderStraightUpAndDown: the degenerate cameras actually render —
// deterministically and with light in frame (the quickstart ceiling light
// for the up camera).
func TestRenderStraightUpAndDown(t *testing.T) {
	s, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(s, core.DefaultConfig(20000))
	if err != nil {
		t.Fatal(err)
	}
	for name, cam := range map[string]Camera{
		"up":   {Eye: vecmath.V(2, 2, 0.5), LookAt: vecmath.V(2, 2, 3), Up: vecmath.V(0, 0, 1), FovY: 60, Width: 40, Height: 40},
		"down": {Eye: vecmath.V(2, 2, 2.5), LookAt: vecmath.V(2, 2, 0), Up: vecmath.V(0, 0, 1), FovY: 60, Width: 40, Height: 40},
	} {
		a, err := Render(s, res.Forest, cam, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if MeanLuminance(a, a.Bounds()) < 3 {
			t.Errorf("%s: image nearly black", name)
		}
		b, err := Render(s, res.Forest, cam, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if d, _ := RMSE(a, b); d != 0 {
			t.Errorf("%s: degenerate camera renders nondeterministically (RMSE %v)", name, d)
		}
	}
}

// TestSupersamplingIsSeededAndDistinct: samples > 1 changes the image
// (the rays actually jitter), and the jitter is deterministic per seed.
func TestSupersamplingIsSeededAndDistinct(t *testing.T) {
	s, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(s, core.DefaultConfig(20000))
	if err != nil {
		t.Fatal(err)
	}
	cam := Camera{
		Eye: vecmath.V(2, 0.3, 1.5), LookAt: vecmath.V(2, 4, 1.2),
		Up: vecmath.V(0, 0, 1), FovY: 70, Width: 64, Height: 48,
	}
	opts := Options{Exposure: 2}
	plain, err := Render(s, res.Forest, cam, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Samples = 2
	ss, err := Render(s, res.Forest, cam, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := RMSE(plain, ss); d == 0 {
		t.Error("2x2 supersampling identical to the center ray: jitter inert")
	}
	again, err := Render(s, res.Forest, cam, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := RMSE(ss, again); d != 0 {
		t.Errorf("supersampled render nondeterministic at fixed seed (RMSE %v)", d)
	}
}

func TestRenderMismatchedForest(t *testing.T) {
	s, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	other, err := scenes.CornellBox()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(other, core.DefaultConfig(1000))
	if err != nil {
		t.Fatal(err)
	}
	cam := Camera{Eye: vecmath.V(2, 0.3, 1.5), LookAt: vecmath.V(2, 4, 1.2), FovY: 70, Width: 8, Height: 8}
	if _, err := Render(s, res.Forest, cam, Options{}); err == nil {
		t.Fatal("mismatched forest accepted")
	}
}

func TestWritePNG(t *testing.T) {
	_, img := renderQuickstart(t, 5000, 1)
	var buf bytes.Buffer
	if err := WritePNG(&buf, img); err != nil {
		t.Fatal(err)
	}
	// PNG signature.
	if buf.Len() < 8 || buf.Bytes()[1] != 'P' || buf.Bytes()[2] != 'N' || buf.Bytes()[3] != 'G' {
		t.Fatal("output is not a PNG")
	}
}

func TestRMSEValidation(t *testing.T) {
	a := image.NewRGBA(image.Rect(0, 0, 4, 4))
	b := image.NewRGBA(image.Rect(0, 0, 5, 5))
	if _, err := RMSE(a, b); err == nil {
		t.Fatal("mismatched sizes accepted")
	}
	c := image.NewRGBA(image.Rect(0, 0, 4, 4))
	d, err := RMSE(a, c)
	if err != nil || d != 0 {
		t.Fatalf("identical images RMSE = %v, err %v", d, err)
	}
}

func TestToneChannelRange(t *testing.T) {
	prev := uint8(0)
	for _, x := range []float64{-1, 0, 0.001, 1, 100, 1e9} {
		v := toneChannel(x, 1, 2.2)
		if v < prev {
			t.Errorf("toneChannel(%v) = %d, below %d for a smaller radiance", x, v, prev)
		}
		prev = v
	}
	if toneChannel(0, 1, 2.2) != 0 {
		t.Fatal("zero radiance should map to black")
	}
	if toneChannel(1e12, 1, 2.2) != 255 {
		t.Fatal("huge radiance should saturate at white")
	}
}

func TestDifferentViewpointsFromOneAnswer(t *testing.T) {
	// Figure 4.10: several viewpoints, one answer file, no recomputation.
	s, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(s, core.DefaultConfig(50000))
	if err != nil {
		t.Fatal(err)
	}
	cams := []Camera{
		{Eye: vecmath.V(2, 0.3, 1.5), LookAt: vecmath.V(2, 4, 1.2), FovY: 70, Width: 32, Height: 24},
		{Eye: vecmath.V(0.3, 2, 1.5), LookAt: vecmath.V(4, 2, 1.2), FovY: 70, Width: 32, Height: 24},
		{Eye: vecmath.V(3.7, 3.7, 2.5), LookAt: vecmath.V(0.5, 0.5, 0.5), FovY: 70, Width: 32, Height: 24},
	}
	var prev *image.RGBA
	for i, cam := range cams {
		img, err := Render(s, res.Forest, cam, Options{})
		if err != nil {
			t.Fatalf("viewpoint %d: %v", i, err)
		}
		if MeanLuminance(img, img.Bounds()) < 3 {
			t.Fatalf("viewpoint %d black", i)
		}
		if prev != nil {
			if d, _ := RMSE(prev, img); d == 0 {
				t.Fatalf("viewpoints %d and %d identical", i-1, i)
			}
		}
		prev = img
	}
}

// BenchmarkPrimaryRays measures the view stage's per-ray cost in isolation:
// one primary ray per pixel through the scene intersector plus the radiance
// lookup, single worker, no supersampling — the Mrays/s the tile renderer
// multiplies by its worker count.
func BenchmarkPrimaryRays(b *testing.B) {
	s, err := scenes.Quickstart()
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Run(s, core.DefaultConfig(30000))
	if err != nil {
		b.Fatal(err)
	}
	cam := Camera{
		Eye: vecmath.V(2, 0.3, 1.5), LookAt: vecmath.V(2, 4, 1.2),
		Up: vecmath.V(0, 0, 1), FovY: 70, Width: 320, Height: 240,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Render(s, res.Forest, cam, Options{Exposure: 2, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
	rays := float64(cam.Width*cam.Height) * float64(b.N)
	b.ReportMetric(rays/b.Elapsed().Seconds()/1e6, "Mrays/s")
}
