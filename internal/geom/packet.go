//photon:deterministic — packet traversal must produce bit-identical hits to the scalar path;
// photon-lint (nondeterm, floatreduce) polices this file — see DESIGN.md.

package geom

import (
	"math"

	"repro/internal/vecmath"
)

// RayPacket is a structure-of-arrays bundle of rays traced together through
// the octree. Origins, directions and reciprocal directions live in parallel
// slices, and the reciprocals are computed once per ray at Append rather
// than once per Intersect call. No engine traces packets; they are kept
// only because the benchmark's layer table times them (geom.packet).
type RayPacket struct {
	Ox, Oy, Oz []float64 // origins
	Dx, Dy, Dz []float64 // directions
	Ix, Iy, Iz []float64 // reciprocal directions (1/D, IEEE Inf on zeros)
	n          int
}

// Reset empties the packet, retaining capacity.
func (p *RayPacket) Reset() { p.n = 0 }

// Append adds a ray to the packet and returns its index. The reciprocal
// direction is computed here, with exactly the arithmetic (1/D per
// component) the scalar Octree.Intersect performs, so packet and scalar
// traversal decisions are bit-identical.
func (p *RayPacket) Append(r vecmath.Ray) int {
	i := p.n
	if i < len(p.Ox) {
		p.Ox[i], p.Oy[i], p.Oz[i] = r.Origin.X, r.Origin.Y, r.Origin.Z
		p.Dx[i], p.Dy[i], p.Dz[i] = r.Dir.X, r.Dir.Y, r.Dir.Z
		p.Ix[i], p.Iy[i], p.Iz[i] = 1/r.Dir.X, 1/r.Dir.Y, 1/r.Dir.Z
	} else {
		p.Ox, p.Oy, p.Oz = append(p.Ox, r.Origin.X), append(p.Oy, r.Origin.Y), append(p.Oz, r.Origin.Z)
		p.Dx, p.Dy, p.Dz = append(p.Dx, r.Dir.X), append(p.Dy, r.Dir.Y), append(p.Dz, r.Dir.Z)
		p.Ix, p.Iy, p.Iz = append(p.Ix, 1/r.Dir.X), append(p.Iy, 1/r.Dir.Y), append(p.Iz, 1/r.Dir.Z)
	}
	p.n = i + 1
	return i
}

// Ray reconstructs ray i as the AoS value the patch intersector consumes.
func (p *RayPacket) Ray(i int) vecmath.Ray {
	return vecmath.Ray{
		Origin: vecmath.Vec3{X: p.Ox[i], Y: p.Oy[i], Z: p.Oz[i]},
		Dir:    vecmath.Vec3{X: p.Dx[i], Y: p.Dy[i], Z: p.Dz[i]},
	}
}

// PacketScratch holds IntersectPacket's DFS stack. Kept beside the packet
// and reused, it spares every ray the zeroing a fresh local stack costs
// (Octree.Intersect pays it once per call).
type PacketScratch struct {
	stack [traversalStack]int32
}

// IntersectPacket finds, for every ray in the packet, the closest hit within
// (tMin, tMax), writing hits[i]/found[i] per ray. Each ray runs through the
// same walk as Octree.Intersect, in packet order, so the results are
// bit-identical to calling Intersect per ray.
func (o *Octree) IntersectPacket(p *RayPacket, tMin, tMax float64, hits []Hit, found []bool, s *PacketScratch) {
	for i := 0; i < p.n; i++ {
		found[i] = o.walk(p.Ray(i), p.Ix[i], p.Iy[i], p.Iz[i], tMin, tMax, &hits[i], &s.stack)
	}
}

// IntersectPacket finds the closest patch hit for every ray in the packet,
// with the same (Eps, +Inf) range as the scalar Scene.Intersect. hits and
// found must have at least Len entries.
func (sc *Scene) IntersectPacket(p *RayPacket, hits []Hit, found []bool, s *PacketScratch) {
	sc.octree.IntersectPacket(p, Eps, math.Inf(1), hits, found, s)
}
