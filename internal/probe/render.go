package probe

import (
	"fmt"
	"image"
	"math"

	"repro/internal/bintree"
	"repro/internal/geom"
	"repro/internal/scenes"
	"repro/internal/vecmath"
	"repro/internal/view"
)

// Options tunes probe rendering. Probe frames go through the full path's
// own tone map (view.Tonemap: the same exposure, Reinhard curve, gamma and
// byte rounding), so the two qualities differ only in how per-pixel
// radiance was obtained.
type Options struct {
	// Exposure scales radiance before tone mapping; 0 selects the same
	// automatic exposure as the full path.
	Exposure float64
	// Gamma is the display gamma (default 2.2).
	Gamma float64
}

// nearEps is the camera-space near plane the rasterizer clips against;
// well above round-off, well below any scene feature.
const nearEps = 1e-6

// Render draws the viewpoint from baked probes alone: no forest, no
// octree. Instead of casting a ray per pixel it rasterizes every patch —
// project the parallelogram's corners, clip against the near plane, and
// test only the pixels inside the projected bounding box against the
// patch plane under a z-buffer. Visibility is therefore exact (each
// pixel's closest patch along its primary ray, the same ray the full path
// casts); only shading is approximate, reconstructed from the patch's
// probe cell. Cost is O(patches + covered pixels) rather than
// O(pixels × octree depth), which is where the probe path's order-of-
// magnitude latency win comes from.
//
// Render is deterministic: patches rasterize in ID order and the z-buffer
// resolves strictly by ray parameter, so equal inputs give identical
// frames.
func Render(sc *scenes.Scene, g *Grid, cam view.Camera, opts Options) (*image.RGBA, error) {
	if err := cam.Validate(); err != nil {
		return nil, err
	}
	if g.NumPatches() != len(sc.Geom.Patches) {
		return nil, fmt.Errorf("probe: grid covers %d patches, scene has %d",
			g.NumPatches(), len(sc.Geom.Patches))
	}
	fb := rasterize(sc, cam)

	// Shade the resolved frame from the probes. Deferred until visibility
	// settles so overdrawn pixels are never shaded.
	width, height := cam.Width, cam.Height
	normals := make([]vecmath.Vec3, len(sc.Geom.Patches))
	for i := range sc.Geom.Patches {
		normals[i] = sc.Geom.Patches[i].Normal()
	}
	rad := make([]bintree.RGB, width*height)
	for idx, id := range fb.pid {
		if id < 0 {
			continue // background stays black, as in the full path
		}
		p := &sc.Geom.Patches[id]
		s, t := float64(fb.s[idx]), float64(fb.t[idx])
		toEye := cam.Eye.Sub(p.Point(s, t)).Norm()
		// The zonal probe serves both faces: only |cosθ| matters.
		lz := math.Abs(toEye.Dot(normals[id]))
		rad[idx] = g.Radiance(int(id), s, t, lz)
	}
	return view.Tonemap(rad, width, height, opts.Exposure, opts.Gamma), nil
}

// framebuffer is the rasterizer's visibility result: per pixel, the
// front-most patch (-1 = background) and its bilinear hit coordinates.
type framebuffer struct {
	pid  []int32
	s, t []float32
}

// rasterize resolves per-pixel visibility by z-buffered patch projection.
// Split from Render so the visibility-exactness test can compare it
// against per-pixel ray casting directly.
//
// The per-pixel ray directions are deliberately left unnormalized
// (w + sx·u + sy·v): every patch tested at a pixel shares that pixel's
// direction, so the ray parameters being compared under the z-buffer are
// uniformly scaled per pixel and the front-most patch is unchanged — and
// because the w-component is exactly 1, the stored parameter is the hit's
// camera depth. The plane test is Patch.Intersect's own arithmetic with
// the patch-constant numerator hoisted out of the pixel loop.
func rasterize(sc *scenes.Scene, cam view.Camera) framebuffer {
	u, v, w := cam.Basis()
	halfH := math.Tan(cam.FovY * math.Pi / 360)
	halfW := halfH * float64(cam.Width) / float64(cam.Height)
	width, height := cam.Width, cam.Height

	// Per-pixel primary directions (unnormalized; see above), computed
	// once and shared by every patch's pixel tests.
	dirs := make([]vecmath.Vec3, width*height)
	for py := 0; py < height; py++ {
		sy := (1 - 2*(float64(py)+0.5)/float64(height)) * halfH
		for px := 0; px < width; px++ {
			sx := (2*(float64(px)+0.5)/float64(width) - 1) * halfW
			dirs[py*width+px] = w.Add(u.Scale(sx)).Add(v.Scale(sy))
		}
	}

	zbuf := make([]float64, width*height)
	for i := range zbuf {
		zbuf[i] = math.Inf(1)
	}
	fb := framebuffer{
		pid: make([]int32, width*height),
		s:   make([]float32, width*height),
		t:   make([]float32, width*height),
	}
	for i := range fb.pid {
		fb.pid[i] = -1
	}

	const pad = 1e-9 // Patch.Intersect's boundary round-off tolerance
	for i := range sc.Geom.Patches {
		p := &sc.Geom.Patches[i]
		x0, y0, x1, y1, ok := screenBounds(p, cam.Eye, u, v, w, halfW, halfH, width, height)
		if !ok {
			continue
		}
		n := p.Normal()
		// Patch-constant plane numerator: t = (Origin−eye)·n / (dir·n).
		num := p.Origin.Sub(cam.Eye).Dot(n)
		for py := y0; py < y1; py++ {
			rowBase := py * width
			for px := x0; px < x1; px++ {
				idx := rowBase + px
				denom := dirs[idx].Dot(n)
				if math.Abs(denom) < 1e-14 {
					continue
				}
				t := num / denom
				if t <= geom.Eps || t >= zbuf[idx] {
					continue
				}
				world := cam.Eye.Add(dirs[idx].Scale(t))
				s, tt := p.Params(world)
				if s < -pad || s > 1+pad || tt < -pad || tt > 1+pad {
					continue
				}
				zbuf[idx] = t
				fb.pid[idx] = int32(i)
				fb.s[idx] = float32(vecmath.Clamp(s, 0, 1))
				fb.t[idx] = float32(vecmath.Clamp(tt, 0, 1))
			}
		}
	}
	return fb
}

// screenBounds returns the clamped pixel bounding box [x0,x1)×[y0,y1) of
// the patch's screen projection, clipped against the camera near plane.
// ok is false when the patch is entirely behind the camera or projects
// outside the frame.
func screenBounds(p *geom.Patch, eye, u, v, w vecmath.Vec3, halfW, halfH float64,
	width, height int) (x0, y0, x1, y1 int, ok bool) {
	// Corners in camera coordinates (x right, y up, z along the view).
	var poly [8][3]float64
	n := 0
	for _, c := range [4]vecmath.Vec3{
		p.Point(0, 0), p.Point(1, 0), p.Point(1, 1), p.Point(0, 1),
	} {
		d := c.Sub(eye)
		poly[n] = [3]float64{d.Dot(u), d.Dot(v), d.Dot(w)}
		n++
	}
	// Sutherland–Hodgman clip against z >= nearEps: a convex polygon
	// clipped by a plane stays convex, so the projected vertices' bounding
	// box bounds the whole projection.
	var clipped [8][3]float64
	m := 0
	for i := 0; i < n; i++ {
		a, b := poly[i], poly[(i+1)%n]
		ain, bin := a[2] >= nearEps, b[2] >= nearEps
		if ain {
			clipped[m] = a
			m++
		}
		if ain != bin {
			f := (nearEps - a[2]) / (b[2] - a[2])
			clipped[m] = [3]float64{
				a[0] + f*(b[0]-a[0]),
				a[1] + f*(b[1]-a[1]),
				nearEps,
			}
			m++
		}
	}
	if m == 0 {
		return 0, 0, 0, 0, false
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for i := 0; i < m; i++ {
		sx := clipped[i][0] / clipped[i][2] / halfW
		sy := clipped[i][1] / clipped[i][2] / halfH
		px := (sx + 1) / 2 * float64(width)
		py := (1 - sy) / 2 * float64(height)
		minX, maxX = math.Min(minX, px), math.Max(maxX, px)
		minY, maxY = math.Min(minY, py), math.Max(maxY, py)
	}
	// One pixel of slack for projection round-off, then clamp to frame.
	x0 = clampInt(int(math.Floor(minX))-1, 0, width)
	x1 = clampInt(int(math.Ceil(maxX))+1, 0, width)
	y0 = clampInt(int(math.Floor(minY))-1, 0, height)
	y1 = clampInt(int(math.Ceil(maxY))+1, 0, height)
	return x0, y0, x1, y1, x0 < x1 && y0 < y1
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
