// Package view renders images from a completed Photon answer: the
// "single-step ray trace" of Figure 4.9. A primary ray per pixel finds the
// first visible surface; the colour is the radiance a photon travelling
// from that surface toward the eye would have been binned with — looked up
// directly in the surface's 4-D bin tree. No light transport happens at
// view time, so any number of viewpoints render from one answer file.
package view

import (
	"fmt"
	"image"
	"image/png"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bintree"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/sampler"
	"repro/internal/scenes"
	"repro/internal/vecmath"
)

// Camera is a pinhole camera.
type Camera struct {
	Eye    vecmath.Vec3
	LookAt vecmath.Vec3
	Up     vecmath.Vec3
	// FovY is the vertical field of view in degrees.
	FovY float64
	// Width and Height are the image dimensions in pixels.
	Width, Height int
}

// maxPixels bounds Width×Height (16384²). Beyond this the radiance buffer
// alone is multi-GB, and on 32-bit ints the product could overflow — any
// such request is a bug or an attack, never a frame.
const maxPixels = 1 << 28

// Validate checks the camera parameters.
func (c *Camera) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("view: image dimensions %dx%d invalid", c.Width, c.Height)
	}
	if c.Width > maxPixels/c.Height { // overflow-safe: both factors positive
		return fmt.Errorf("view: image dimensions %dx%d exceed %d pixels", c.Width, c.Height, maxPixels)
	}
	// Written so NaN fails: every comparison with NaN is false.
	if !(c.FovY > 0 && c.FovY < 180) {
		return fmt.Errorf("view: FovY %v out of (0,180)", c.FovY)
	}
	if !c.Eye.IsFinite() || !c.LookAt.IsFinite() || !c.Up.IsFinite() {
		return fmt.Errorf("view: Eye %v, LookAt %v and Up %v must be finite", c.Eye, c.LookAt, c.Up)
	}
	if c.LookAt.Sub(c.Eye).Len() == 0 {
		return fmt.Errorf("view: Eye and LookAt coincide")
	}
	return nil
}

// Basis returns the camera's right-handed orthonormal frame: u (right),
// v (true up), w (view direction). A zero Up defaults to +Z. When the view
// direction is parallel to Up — a straight-up or straight-down camera —
// the fallback up axis is the world axis least aligned with the view
// direction (lowest axis index on ties), so the image roll is a fixed,
// documented function of the camera rather than an accident of an
// arbitrary fallback vector.
func (c *Camera) Basis() (u, v, w vecmath.Vec3) {
	w = c.LookAt.Sub(c.Eye).Norm()
	up := c.Up
	if up.Len() == 0 {
		up = vecmath.V(0, 0, 1)
	}
	up = up.Norm()
	cr := w.Cross(up)
	// |cr| = sin of the angle between w and up: treat near-parallel like
	// parallel so the basis cannot be amplified out of round-off noise.
	if cr.Len() < 1e-9 {
		axes := [3]vecmath.Vec3{vecmath.V(1, 0, 0), vecmath.V(0, 1, 0), vecmath.V(0, 0, 1)}
		comps := [3]float64{math.Abs(w.X), math.Abs(w.Y), math.Abs(w.Z)}
		best := 0
		for i := 1; i < 3; i++ {
			if comps[i] < comps[best] {
				best = i
			}
		}
		cr = w.Cross(axes[best])
	}
	u = cr.Norm()
	v = u.Cross(w)
	return u, v, w
}

// Options tunes rendering.
type Options struct {
	// Exposure scales radiance before tone mapping; 0 selects an automatic
	// exposure from the image's mean luminance.
	Exposure float64
	// Gamma is the display gamma (default 2.2).
	Gamma float64
	// Workers is the number of tile-rendering goroutines (default
	// runtime.GOMAXPROCS(0)). The output image is bit-identical at any
	// worker count — see Render.
	Workers int
	// Samples is the per-axis supersampling factor: Samples² jittered
	// primary rays per pixel, averaged (default 1: a single center ray,
	// no random draws).
	Samples int
	// Seed selects the deterministic per-pixel jitter substreams used when
	// Samples > 1 (default 1). The same Seed produces the same image at
	// any worker count; different Seeds produce independently jittered
	// images.
	Seed int64
	// Obs, when non-nil, records the render's phases: a "render" span over
	// the whole frame, one "render/tile" span per claimed tile (totals sum
	// across concurrent workers), a "render/tonemap" span, and the pixels,
	// primary_rays and rays_per_sec metrics. The output image is unchanged
	// by instrumentation.
	Obs *obs.Run
}

// tileSize is the square tile edge dealt to render workers. 32×32 pixels
// is small enough to load-balance a 640×480 frame across many workers
// (300 tickets) and large enough that the atomic ticket counter is cold.
const tileSize = 32

// tileRenderer is the read-only state shared by all render workers.
type tileRenderer struct {
	sc           *scenes.Scene
	forest       *bintree.Forest
	eye          vecmath.Vec3
	u, v, w      vecmath.Vec3
	halfW, halfH float64
	width        int
	height       int
	samples      int
	seed         int64
}

// trace follows one primary ray through screen offsets (sx, sy), reusing
// the caller's hit record.
func (r *tileRenderer) trace(sx, sy float64, h *geom.Hit) bintree.RGB {
	dir := r.w.Add(r.u.Scale(sx)).Add(r.v.Scale(sy)).Norm()
	ray := vecmath.Ray{Origin: r.eye, Dir: dir}
	if !r.sc.Geom.Intersect(ray, h) {
		return bintree.RGB{} // background stays black
	}
	return RadianceToward(r.sc, r.forest, h, r.eye)
}

// pixel computes pixel (px, py)'s radiance. With samples == 1 it casts the
// single center ray; otherwise it averages a samples×samples jittered grid
// whose random offsets come from the pixel's private substream — the same
// splitmix placement as core.PhotonStream — so the value is a pure
// function of (seed, px, py), independent of which worker renders it.
func (r *tileRenderer) pixel(px, py int, h *geom.Hit) bintree.RGB {
	if r.samples <= 1 {
		sx := (2*(float64(px)+0.5)/float64(r.width) - 1) * r.halfW
		sy := (1 - 2*(float64(py)+0.5)/float64(r.height)) * r.halfH
		return r.trace(sx, sy, h)
	}
	stream := core.PhotonStream(r.seed, int64(py*r.width+px))
	n := r.samples
	var sum bintree.RGB
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			jx := (float64(i) + stream.Float64()) / float64(n)
			jy := (float64(j) + stream.Float64()) / float64(n)
			sx := (2*(float64(px)+jx)/float64(r.width) - 1) * r.halfW
			sy := (1 - 2*(float64(py)+jy)/float64(r.height)) * r.halfH
			sum = sum.Add(r.trace(sx, sy, h))
		}
	}
	return sum.Scale(1 / float64(n*n))
}

// Render produces the image seen by cam from the scene's answer forest —
// the paper's stage two (Figure 4.9): one radiance lookup per primary ray,
// no light transport, so any number of viewpoints render from one answer.
//
// Normalization contract: the forest's tallies are absolute power, and
// Forest.Radiance divides each leaf's power by its bin measure (surface
// area covered × projected solid angle), so the image needs no
// photon-count normalization — answers with 10³ and 10⁶ photons differ in
// noise, not brightness.
//
// Parallelism: pixels are dealt to opts.Workers goroutines in square
// tiles from an atomic ticket counter (the view-stage analogue of the
// shared engine's work-stealing chunk queue); each worker traces into a
// private tile buffer with a reusable hit record. Every pixel's value is a
// pure function of the camera, forest and (opts.Seed, pixel index), so
// the output is bit-identical at any worker count and tile schedule — the
// render-stage counterpart of the engine conformance contract.
func Render(sc *scenes.Scene, forest *bintree.Forest, cam Camera, opts Options) (*image.RGBA, error) {
	if err := cam.Validate(); err != nil {
		return nil, err
	}
	if forest.NumPatches() != len(sc.Geom.Patches) {
		return nil, fmt.Errorf("view: forest covers %d patches, scene has %d",
			forest.NumPatches(), len(sc.Geom.Patches))
	}
	if opts.Gamma <= 0 {
		opts.Gamma = 2.2
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	samples := opts.Samples
	if samples <= 0 {
		samples = 1
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}

	u, v, w := cam.Basis()
	halfH := math.Tan(cam.FovY * math.Pi / 360)
	halfW := halfH * float64(cam.Width) / float64(cam.Height)
	r := &tileRenderer{
		sc: sc, forest: forest, eye: cam.Eye,
		u: u, v: v, w: w, halfW: halfW, halfH: halfH,
		width: cam.Width, height: cam.Height,
		samples: samples, seed: seed,
	}

	// First pass: raw radiance per pixel, tile-parallel. Workers claim
	// tiles from the ticket counter, render into a private tile buffer,
	// then copy the rows into the (disjoint) frame region.
	renderSpan := opts.Obs.StartSpan("render")
	var renderStart time.Time
	if opts.Obs.Enabled() {
		renderStart = time.Now()
	}
	rad := make([]bintree.RGB, cam.Width*cam.Height)
	tilesX := (cam.Width + tileSize - 1) / tileSize
	tilesY := (cam.Height + tileSize - 1) / tileSize
	nTiles := int64(tilesX) * int64(tilesY)
	if int64(workers) > nTiles {
		workers = int(nTiles)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var h geom.Hit
			var tile [tileSize * tileSize]bintree.RGB
			for {
				idx := next.Add(1) - 1
				if idx >= nTiles {
					return
				}
				span := opts.Obs.StartSpan("render/tile")
				x0 := int(idx%int64(tilesX)) * tileSize
				y0 := int(idx/int64(tilesX)) * tileSize
				x1 := min(x0+tileSize, cam.Width)
				y1 := min(y0+tileSize, cam.Height)
				for py := y0; py < y1; py++ {
					for px := x0; px < x1; px++ {
						tile[(py-y0)*tileSize+(px-x0)] = r.pixel(px, py, &h)
					}
				}
				for py := y0; py < y1; py++ {
					copy(rad[py*cam.Width+x0:py*cam.Width+x1],
						tile[(py-y0)*tileSize:(py-y0)*tileSize+(x1-x0)])
				}
				span.End()
			}
		}()
	}
	wg.Wait()
	renderSpan.End()
	if opts.Obs.Enabled() {
		pixels := float64(cam.Width) * float64(cam.Height)
		rays := pixels * float64(samples) * float64(samples)
		opts.Obs.Set("pixels", pixels)
		opts.Obs.Set("primary_rays", rays)
		if s := time.Since(renderStart).Seconds(); s > 0 {
			opts.Obs.Set("rays_per_sec", rays/s)
		}
	}

	// Second pass: exposure + Reinhard tone map + gamma.
	toneSpan := opts.Obs.StartSpan("render/tonemap")
	img := Tonemap(rad, cam.Width, cam.Height, opts.Exposure, opts.Gamma)
	toneSpan.End()
	return img, nil
}

// RadianceToward evaluates the answer forest for the radiance leaving the
// hit surface toward the eye: the core DetermineBin logic shared between
// simulation and viewing, as the paper notes.
func RadianceToward(sc *scenes.Scene, forest *bintree.Forest, h *geom.Hit, eye vecmath.Vec3) bintree.RGB {
	toEye := eye.Sub(h.Point).Norm()
	basis := h.Patch.Basis()
	if !h.FrontFace {
		basis = vecmath.ONB{U: basis.U, V: basis.V.Neg(), W: basis.W.Neg()}
	}
	lx, ly, lz := basis.ToLocal(toEye)
	if lz <= 0 {
		return bintree.RGB{} // grazing/behind: no stored radiance
	}
	r2, theta := sampler.CylindricalCoords(vecmath.V(lx, ly, lz))
	return forest.Radiance(h.Patch.ID, bintree.Point{S: h.S, T: h.T2, R2: r2, Theta: theta},
		h.Patch.Area())
}

// pngEncoder is png.Encode's encoder — default compression, so the bytes
// are identical — with its deflate state and scanline buffers pooled
// across frames instead of allocated per encode. Encode only reads the
// Encoder, so concurrent frames share it.
var pngEncoder = png.Encoder{BufferPool: new(pngBufferPool)}

// pngBufferPool is a png.EncoderBufferPool over a sync.Pool.
type pngBufferPool struct{ pool sync.Pool }

func (p *pngBufferPool) Get() *png.EncoderBuffer {
	b, _ := p.pool.Get().(*png.EncoderBuffer)
	return b
}

func (p *pngBufferPool) Put(b *png.EncoderBuffer) { p.pool.Put(b) }

// WritePNG encodes the image to w. It is safe for concurrent use.
func WritePNG(w io.Writer, img image.Image) error { return pngEncoder.Encode(w, img) }

// RMSE returns the root-mean-square pixel difference between two images of
// equal size, in [0,255] units — the quality metric behind the visual
// speedup comparison (Figure 5.16: more processors in a fixed time budget
// means more photons means less noise).
func RMSE(a, b *image.RGBA) (float64, error) {
	if a.Bounds() != b.Bounds() {
		return 0, fmt.Errorf("view: image sizes differ: %v vs %v", a.Bounds(), b.Bounds())
	}
	var sum float64
	var n int
	bd := a.Bounds()
	for y := bd.Min.Y; y < bd.Max.Y; y++ {
		for x := bd.Min.X; x < bd.Max.X; x++ {
			ca := a.RGBAAt(x, y)
			cb := b.RGBAAt(x, y)
			dr := float64(ca.R) - float64(cb.R)
			dg := float64(ca.G) - float64(cb.G)
			db := float64(ca.B) - float64(cb.B)
			sum += dr*dr + dg*dg + db*db
			n += 3
		}
	}
	return math.Sqrt(sum / float64(n)), nil
}

// MeanLuminance returns the mean tone-mapped luminance of an image region,
// for tests that compare bright and dark areas.
func MeanLuminance(img *image.RGBA, r image.Rectangle) float64 {
	var sum float64
	var n int
	for y := r.Min.Y; y < r.Max.Y; y++ {
		for x := r.Min.X; x < r.Max.X; x++ {
			c := img.RGBAAt(x, y)
			sum += 0.2126*float64(c.R) + 0.7152*float64(c.G) + 0.0722*float64(c.B)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
