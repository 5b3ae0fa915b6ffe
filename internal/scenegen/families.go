//photon:deterministic — generated scenes are identical for a given family, size, and seed;
// photon-lint (nondeterm, floatreduce) polices this file — see DESIGN.md.

package scenegen

import (
	"math"

	"repro/internal/brdf"
	"repro/internal/rng"
	"repro/internal/sampler"
	"repro/internal/vecmath"
)

// The generator families. Every family wraps its contents in a closed
// axis-aligned shell so that — whatever the parameters — a photon can
// never escape the scene, and always places at least one luminaire.
//
// To add a family: append to this slice with a one-line comment, a name, a
// parameter schema (defaults + ranges; integer parameters reject fractional
// values at parse time), and a build function that draws every random
// choice from sub(seed, kind, index) substreams keyed by element identity.
// The differential harness in the repository root and FuzzSceneGen pick new
// families up automatically via Families().
var families = []family{
	{
		// grid of connected rooms with doorways and furniture clutter at controllable occlusion density
		name: "office",
		params: []paramDef{
			// rooms per axis (rooms² cells)
			{name: "rooms", def: 2, min: 1, max: 4, integer: true},
			// furniture clutter per room (0 = empty, 1 = crowded)
			{name: "density", def: 0.5, min: 0, max: 1},
		},
		build: buildOffice,
	},
	{
		// single hall under an nx×ny luminaire array with uniform collimation, plus floor occluders
		name: "lights",
		params: []paramDef{
			// light columns
			{name: "nx", def: 3, min: 1, max: 8, integer: true},
			// light rows
			{name: "ny", def: 2, min: 1, max: 8, integer: true},
			// emission cone scale (1 diffuse, 0.005 solar)
			{name: "collimation", def: 1, min: sampler.SunScale, max: 1},
		},
		build: buildLights,
	},
	{
		// long mirror-heavy hall: facing mirror panels down both walls, ceiling lights, column occluders
		name: "hall",
		params: []paramDef{
			// hall length in metres
			{name: "length", def: 16, min: 6, max: 40},
			// mirror panels
			{name: "mirrors", def: 10, min: 2, max: 32, integer: true},
		},
		build: buildHall,
	},
	{
		// degenerate layouts inside a shell: near-zero-area slivers, exactly coplanar stacks, octant-spanning sheets
		name: "adversarial",
		params: []paramDef{
			// randomly oriented slivers with widths down to 1e-7 m
			{name: "slivers", def: 8, min: 0, max: 64, integer: true},
			// stacks of four exactly coplanar overlapping quads
			{name: "stacks", def: 6, min: 0, max: 64, integer: true},
			// near-axis sheets through the octree root center, crossing all octants
			{name: "spans", def: 4, min: 0, max: 16, integer: true},
		},
		build: buildAdversarial,
	},
	{
		// patch-count scaling family: an exact number of defining polygons as a jittered tile lattice
		name: "grid",
		params: []paramDef{
			// exact defining-polygon count (shell + light + tiles)
			{name: "patches", def: 1000, min: 24, max: 120000, integer: true},
		},
		build: buildGrid,
	},
}

// buildOffice: rooms×rooms cells of 5×4×2.8 m separated by interior walls
// with one doorway per shared edge (position per-door substream). Each cell
// gets one jittered ceiling panel and round(density·6) furniture boxes.
func buildOffice(seed int64, p map[string]float64, b *Builder) {
	n := int(p["rooms"])
	density := p["density"]
	const cw, ch, hz = 5.0, 4.0, 2.8 // cell width (x), depth (y), room height

	white := b.Material(brdf.MatteWhite())
	gray := b.Material(brdf.MatteGray())
	wood := b.Material(brdf.LacqueredWood())
	semi := b.Material(brdf.SemiGloss())

	W, D := float64(n)*cw, float64(n)*ch
	b.Room(vecmath.V(0, 0, 0), vecmath.V(W, D, hz), gray, white, white)

	// wallWithDoor adds a wall segment in the plane fixed by origin/span
	// (span is the along-wall horizontal direction, |span| = segment
	// length) pierced by a doorway of width dw and height dh whose offset
	// along the segment comes from the door's substream.
	const dw, dh = 0.9, 2.1
	wallWithDoor := func(origin, along vecmath.Vec3, mat int, doorIdx int) {
		length := along.Len()
		dir := along.Scale(1 / length)
		r := sub(seed, subDoor, doorIdx)
		off := 0.3 + r.Float64()*(length-dw-0.6)
		up := vecmath.V(0, 0, 1)
		// piece before the door (full height)
		b.Quad(origin, dir.Scale(off), up.Scale(hz), mat)
		// piece after the door (full height)
		b.Quad(origin.Add(dir.Scale(off+dw)), dir.Scale(length-off-dw), up.Scale(hz), mat)
		// lintel above the door
		b.Quad(origin.Add(dir.Scale(off)).Add(up.Scale(dh)), dir.Scale(dw), up.Scale(hz-dh), mat)
	}
	// Interior walls: n-1 planes per axis, one doorway per cell edge.
	for i := 1; i < n; i++ {
		for j := 0; j < n; j++ {
			// vertical wall at x = i·cw, row j
			wallWithDoor(vecmath.V(float64(i)*cw, float64(j)*ch, 0),
				vecmath.V(0, ch, 0), white, 0<<16|i<<8|j)
			// horizontal wall at y = i·ch, column j
			wallWithDoor(vecmath.V(float64(j)*cw, float64(i)*ch, 0),
				vecmath.V(cw, 0, 0), white, 1<<16|i<<8|j)
		}
	}

	furniture := int(math.Round(density * 6))
	mats := [3]int{wood, gray, semi}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			cell := i*n + j
			x0, y0 := float64(i)*cw, float64(j)*ch
			// jittered ceiling panel
			r := sub(seed, subLight, cell)
			lx := x0 + cw/2 - 0.5 + (r.Float64()-0.5)*0.6
			ly := y0 + ch/2 - 0.4 + (r.Float64()-0.5)*0.6
			b.Light(vecmath.V(lx, ly, hz-0.01), vecmath.V(0, 0.8, 0), vecmath.V(1.0, 0, 0),
				vecmath.V(50, 50, 46), 1, white)
			// furniture boxes
			for k := 0; k < furniture; k++ {
				fr := sub(seed, subFurniture, cell<<8|k)
				w := 0.4 + fr.Float64()*0.8
				d := 0.4 + fr.Float64()*0.8
				h := 0.4 + fr.Float64()*1.1
				fx := x0 + 0.6 + fr.Float64()*(cw-1.2-w)
				fy := y0 + 0.6 + fr.Float64()*(ch-1.2-d)
				b.Box(vecmath.V(fx, fy, 0), vecmath.V(fx+w, fy+d, h), mats[k%3])
			}
		}
	}
}

// buildLights: one 2(nx+1)×2(ny+1)×3 m hall; every luminaire in the array
// shares the spec's collimation, so the family sweeps the diffuse→solar
// emission continuum the harpsichord room only samples at its endpoints.
func buildLights(seed int64, p map[string]float64, b *Builder) {
	nx, ny := int(p["nx"]), int(p["ny"])
	collim := p["collimation"]

	white := b.Material(brdf.MatteWhite())
	gray := b.Material(brdf.MatteGray())
	semi := b.Material(brdf.SemiGloss())

	W, D := 2+2*float64(nx), 2+2*float64(ny)
	b.Room(vecmath.V(0, 0, 0), vecmath.V(W, D, 3), gray, white, white)
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			b.Light(vecmath.V(1.5+2*float64(i), 1.6+2*float64(j), 2.99),
				vecmath.V(0, 0.8, 0), vecmath.V(1.0, 0, 0),
				vecmath.V(120, 115, 100), collim, white)
		}
	}
	// Floor occluders so collimated beams actually cast structure.
	boxes := 2 + nx*ny/4
	for k := 0; k < boxes; k++ {
		r := sub(seed, subFurniture, k)
		w := 0.5 + r.Float64()*0.9
		d := 0.5 + r.Float64()*0.9
		h := 0.5 + r.Float64()*1.6
		x := 0.5 + r.Float64()*(W-1.0-w)
		y := 0.5 + r.Float64()*(D-1.0-d)
		b.Box(vecmath.V(x, y, 0), vecmath.V(x+w, y+d, h), semi)
	}
}

// buildHall: a length×3×3 m corridor with mirror panels alternating down
// both long walls — the multi-bounce specular stress the Cornell mirror
// only hints at — plus ceiling lights every ~4 m and two column occluders.
func buildHall(seed int64, p map[string]float64, b *Builder) {
	L := p["length"]
	mirrors := int(p["mirrors"])

	white := b.Material(brdf.MatteWhite())
	gray := b.Material(brdf.MatteGray())
	wood := b.Material(brdf.LacqueredWood())
	mirror := b.Material(brdf.MirrorMaterial())

	b.Room(vecmath.V(0, 0, 0), vecmath.V(L, 3, 3), gray, white, white)
	for k := 0; k < mirrors; k++ {
		r := sub(seed, subMirror, k)
		x := (float64(k)+0.5)*L/float64(mirrors) - 0.6 + (r.Float64()-0.5)*0.4
		x = math.Min(math.Max(x, 0.2), L-1.4)
		if k%2 == 0 { // near wall y=0, mirror faces +y
			b.Quad(vecmath.V(x, 0.005, 0.6), vecmath.V(0, 0, 1.8), vecmath.V(1.2, 0, 0), mirror)
		} else { // far wall y=3, mirror faces -y
			b.Quad(vecmath.V(x, 2.995, 0.6), vecmath.V(1.2, 0, 0), vecmath.V(0, 0, 1.8), mirror)
		}
	}
	for k := 0; k*4 < int(L); k++ {
		lx := math.Min(float64(k)*4+1.2, L-1.2)
		b.Light(vecmath.V(lx, 1.2, 2.99), vecmath.V(0, 0.6, 0), vecmath.V(0.9, 0, 0),
			vecmath.V(60, 60, 55), 1, white)
	}
	for k := 0; k < 2; k++ {
		r := sub(seed, subFurniture, k)
		x := 1 + r.Float64()*(L-2.4)
		b.Box(vecmath.V(x, 1.3, 0), vecmath.V(x+0.4, 1.7, 2.2), wood)
	}
}

// buildAdversarial: the layouts that historically break spatial indices,
// inside an 8×8×4 m shell so the scene still closes. Slivers drive patch
// extents toward the degeneracy threshold, coplanar stacks defeat
// midpoint-split heuristics, and center-crossing sheets exercise the
// octree's allSame/spanning-patch rejection path.
func buildAdversarial(seed int64, p map[string]float64, b *Builder) {
	slivers := int(p["slivers"])
	stacks := int(p["stacks"])
	spans := int(p["spans"])

	white := b.Material(brdf.MatteWhite())
	gray := b.Material(brdf.MatteGray())
	semi := b.Material(brdf.SemiGloss())

	b.Room(vecmath.V(0, 0, 0), vecmath.V(8, 8, 4), gray, white, white)
	b.Light(vecmath.V(3.25, 3.25, 3.99), vecmath.V(0, 1.5, 0), vecmath.V(1.5, 0, 0),
		vecmath.V(70, 70, 64), 1, white)

	interior := func(r *rng.Source, margin float64) vecmath.Vec3 {
		return vecmath.V(margin+r.Float64()*(8-2*margin),
			margin+r.Float64()*(8-2*margin),
			margin*0.5+r.Float64()*(4-margin))
	}
	for k := 0; k < slivers; k++ {
		r := sub(seed, subSliver, k)
		o := interior(r, 1.5)
		long := sampler.UniformSphere(r).Scale(1 + 2*r.Float64())
		// width log-uniform in [1e-7, 1e-4] m: thin enough to stress the
		// octree's bounds math, fat enough that Finish never sees zero area
		width := math.Pow(10, -7+3*r.Float64())
		thin := long.Cross(sampler.UniformSphere(r))
		if thin.Len() < 1e-12 {
			thin = long.Cross(vecmath.V(0, 0, 1)) // parallel draw: any perpendicular works
		}
		if thin.Len() < 1e-12 {
			thin = long.Cross(vecmath.V(1, 0, 0)) // long was vertical
		}
		b.Quad(o, long, thin.Norm().Scale(width), semi)
	}
	for k := 0; k < stacks; k++ {
		r := sub(seed, subStack, k)
		o := interior(r, 1.8)
		for m := 0; m < 4; m++ {
			// exactly coplanar: identical Z, overlapping 1×1 extents
			b.Quad(vecmath.V(o.X+0.2*float64(m), o.Y+0.15*float64(m), o.Z),
				vecmath.V(1, 0, 0), vecmath.V(0, 1, 0), white)
		}
	}
	for k := 0; k < spans; k++ {
		r := sub(seed, subSpan, k)
		tilt := (r.Float64() - 0.5) * 0.2
		// a 6×6 sheet through the room center (4,4,2): every octant of the
		// octree root sees it
		b.Quad(vecmath.V(1, 1, 2-3*tilt+0.1*float64(k)),
			vecmath.V(6, 0, 3*tilt), vecmath.V(0, 6, 3*tilt), gray)
	}
}

// buildGrid: exactly `patches` defining polygons — a closed 10³ m shell,
// one area light, and a jittered lattice of small tiles with cycling
// orientations filling the interior. The scale sweep's 10²→10⁵ patch-count
// axis is this family at increasing `patches`.
func buildGrid(seed int64, p map[string]float64, b *Builder) {
	total := int(p["patches"])

	white := b.Material(brdf.MatteWhite())
	gray := b.Material(brdf.MatteGray())
	semi := b.Material(brdf.SemiGloss())
	wood := b.Material(brdf.LacqueredWood())

	b.Room(vecmath.V(0, 0, 0), vecmath.V(10, 10, 10), gray, white, white)
	b.Light(vecmath.V(3, 3, 9.99), vecmath.V(0, 4, 0), vecmath.V(4, 0, 0),
		vecmath.V(30, 30, 28), 1, white)

	tiles := total - b.NumPatches()
	n := int(math.Ceil(math.Cbrt(float64(tiles))))
	spacing := 8.0 / float64(n)
	size := 0.4 * spacing
	mats := [3]int{white, semi, wood}
	for idx := 0; idx < tiles; idx++ {
		ix, iy, iz := idx%n, idx/n%n, idx/(n*n)
		r := sub(seed, subTile, idx)
		c := vecmath.V(
			1+(float64(ix)+0.5)*spacing+(r.Float64()-0.5)*spacing*0.3,
			1+(float64(iy)+0.5)*spacing+(r.Float64()-0.5)*spacing*0.3,
			1+(float64(iz)+0.5)*spacing+(r.Float64()-0.5)*spacing*0.3,
		)
		switch idx % 3 {
		case 0: // horizontal tile
			b.Quad(c.Sub(vecmath.V(size/2, size/2, 0)),
				vecmath.V(size, 0, 0), vecmath.V(0, size, 0), mats[idx/3%3])
		case 1: // facing +x
			b.Quad(c.Sub(vecmath.V(0, size/2, size/2)),
				vecmath.V(0, size, 0), vecmath.V(0, 0, size), mats[idx/3%3])
		default: // facing +y
			b.Quad(c.Sub(vecmath.V(size/2, 0, size/2)),
				vecmath.V(0, 0, size), vecmath.V(size, 0, 0), mats[idx/3%3])
		}
	}
}
