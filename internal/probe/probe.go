// Package probe bakes a completed answer forest into per-patch grids of
// spherical-harmonic radiance probes and renders approximate frames from
// them without touching the forest — the serving tier's fast path.
//
// Chapter 2 rejects truncated spherical-harmonic radiance for *simulation*
// because a specular spike rings and undershoots at any affordable term
// count (internal/sphharm reproduces Figure 2.4). For *serving* the
// trade-off inverts: a cached scene's forest already holds the converged
// answer, and most of a frame is slowly-varying diffuse interreflection
// that a handful of Legendre terms capture well. So the bake projects each
// patch's outgoing radiance onto a low-order zonal (elevation-only)
// Legendre basis over a coarse spatial grid, once per cache fill, and the
// probe renderer answers any viewpoint from those few hundred coefficients
// per patch in microseconds-per-pixel territory. The ringing the paper
// warns about is still real — probes clamp reconstructed radiance at zero
// and the server keeps quality=full for exact frames.
//
// The basis is zonal deliberately: the forest's histogram point for a
// direction depends on azimuth mirrored per patch face, so a probe that
// averaged over azimuth anyway serves front- and back-face views from one
// coefficient vector. What a zonal probe loses is azimuthal variation
// (mirror highlights smear into a ring); what it keeps is the elevation
// falloff that dominates diffuse scenes.
package probe

import (
	"fmt"
	"math"

	"repro/internal/bintree"
	"repro/internal/scenes"
	"repro/internal/sphharm"
)

// Config tunes the bake. The zero value selects the defaults.
type Config struct {
	// Terms is the number of zonal Legendre terms per probe (default 4).
	Terms int
	// Cells is the spatial probe resolution per (s and t) axis per patch
	// (default 4: 16 probes per patch).
	Cells int
	// ElevSamples is the midpoint-quadrature resolution in the elevation
	// variable x = 2·cosθ−1 used to project radiance onto the basis
	// (default 6).
	ElevSamples int
	// AzimuthSamples is the number of azimuth directions averaged per
	// elevation sample (default 6) — the zonal average.
	AzimuthSamples int
}

func (c *Config) normalize() {
	if c.Terms <= 0 {
		c.Terms = 4
	}
	if c.Cells <= 0 {
		c.Cells = 4
	}
	if c.ElevSamples <= 0 {
		c.ElevSamples = 6
	}
	if c.AzimuthSamples <= 0 {
		c.AzimuthSamples = 6
	}
}

// Grid is a baked probe set: for every patch, Cells×Cells spatial cells,
// each holding Terms RGB Legendre coefficients of the zonally-averaged
// outgoing radiance as a function of elevation. A Grid is immutable after
// Bake and safe for concurrent readers.
type Grid struct {
	patches int
	cells   int
	terms   int
	// coef is indexed ((patch*cells + row)*cells + col)*terms + n, where
	// row bins t and col bins s.
	coef []bintree.RGB
}

// NumPatches returns the patch count the grid was baked for.
func (g *Grid) NumPatches() int { return g.patches }

// MemoryBytes returns the coefficient storage size.
func (g *Grid) MemoryBytes() int64 { return int64(len(g.coef)) * 24 }

// Bake projects the forest's radiance onto probe grids. It reads the
// forest exactly the way the viewer does — Forest.Radiance at histogram
// points — so the probes approximate precisely the function quality=full
// renders. Bake is deterministic: fixed quadrature, no random draws.
func Bake(sc *scenes.Scene, forest *bintree.Forest, cfg Config) (*Grid, error) {
	cfg.normalize()
	n := len(sc.Geom.Patches)
	if forest.NumPatches() != n {
		return nil, fmt.Errorf("probe: forest covers %d patches, scene has %d",
			forest.NumPatches(), n)
	}
	g := &Grid{
		patches: n,
		cells:   cfg.Cells,
		terms:   cfg.Terms,
		coef:    make([]bintree.RGB, n*cfg.Cells*cfg.Cells*cfg.Terms),
	}
	hx := 2.0 / float64(cfg.ElevSamples)
	for p := 0; p < n; p++ {
		area := sc.Geom.Patches[p].Area()
		for row := 0; row < cfg.Cells; row++ {
			t := (float64(row) + 0.5) / float64(cfg.Cells)
			for col := 0; col < cfg.Cells; col++ {
				s := (float64(col) + 0.5) / float64(cfg.Cells)
				base := ((p*cfg.Cells+row)*cfg.Cells + col) * cfg.Terms
				for q := 0; q < cfg.ElevSamples; q++ {
					x := -1 + (float64(q)+0.5)*hx
					lz := (x + 1) / 2
					r2 := 1 - lz*lz
					// Zonal average: the forest bins direction by
					// (r², θ); sample θ uniformly and average.
					var f bintree.RGB
					for a := 0; a < cfg.AzimuthSamples; a++ {
						theta := (float64(a) + 0.5) * 2 * math.Pi / float64(cfg.AzimuthSamples)
						f = f.Add(forest.Radiance(p,
							bintree.Point{S: s, T: t, R2: r2, Theta: theta}, area))
					}
					f = f.Scale(1 / float64(cfg.AzimuthSamples))
					// Project onto the basis: cₙ += (2n+1)/2·Pₙ(x)·f·Δx.
					for nT := 0; nT < cfg.Terms; nT++ {
						w := (2*float64(nT) + 1) / 2 * sphharm.LegendreP(nT, x) * hx
						g.coef[base+nT] = g.coef[base+nT].Add(f.Scale(w))
					}
				}
			}
		}
	}
	return g, nil
}

// Radiance reconstructs the zonally-averaged outgoing radiance of patch
// `patch` at bilinear coordinates (s, t) toward a direction whose cosine
// with the patch normal is lz (either face: the zonal basis serves both).
// Negative reconstructions — the truncation undershoot of Figure 2.4 —
// clamp to zero, since radiance cannot be negative.
func (g *Grid) Radiance(patch int, s, t, lz float64) bintree.RGB {
	col := int(s * float64(g.cells))
	if col >= g.cells {
		col = g.cells - 1
	} else if col < 0 {
		col = 0
	}
	row := int(t * float64(g.cells))
	if row >= g.cells {
		row = g.cells - 1
	} else if row < 0 {
		row = 0
	}
	base := (patch*g.cells+row)*g.cells + col
	return g.radianceCell(base, lz)
}

// radianceCell evaluates cell index `cell` (patch-and-cell flattened) at
// elevation cosine lz, running the Legendre recurrence inline so the hot
// path does terms multiply-adds and no calls.
func (g *Grid) radianceCell(cell int, lz float64) bintree.RGB {
	x := 2*lz - 1
	base := cell * g.terms
	out := g.coef[base] // P₀ = 1
	if g.terms > 1 {
		out = out.Add(g.coef[base+1].Scale(x)) // P₁ = x
		pPrev, p := 1.0, x
		for n := 2; n < g.terms; n++ {
			pPrev, p = p, ((2*float64(n)-1)*x*p-(float64(n)-1)*pPrev)/float64(n)
			out = out.Add(g.coef[base+n].Scale(p))
		}
	}
	if out.R < 0 {
		out.R = 0
	}
	if out.G < 0 {
		out.G = 0
	}
	if out.B < 0 {
		out.B = 0
	}
	return out
}
