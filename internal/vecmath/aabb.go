//photon:deterministic — this float arithmetic underpins cross-engine bit-identity; no FMA or reassociation;
// photon-lint (nondeterm, floatreduce) polices this file — see DESIGN.md.

package vecmath

import "math"

// AABB is an axis-aligned bounding box. The zero value is the *empty* box
// (Min > Max in every axis), which is the identity for Union.
type AABB struct {
	Min, Max Vec3
}

// EmptyAABB returns the empty box: the identity element for Union.
func EmptyAABB() AABB {
	inf := math.Inf(1)
	return AABB{Min: Vec3{inf, inf, inf}, Max: Vec3{-inf, -inf, -inf}}
}

// NewAABB returns the smallest box containing both corner points, in any
// order.
func NewAABB(a, b Vec3) AABB {
	return AABB{
		Min: Vec3{math.Min(a.X, b.X), math.Min(a.Y, b.Y), math.Min(a.Z, b.Z)},
		Max: Vec3{math.Max(a.X, b.X), math.Max(a.Y, b.Y), math.Max(a.Z, b.Z)},
	}
}

// Extend returns the smallest box containing b and the point p.
func (b AABB) Extend(p Vec3) AABB {
	return AABB{
		Min: Vec3{math.Min(b.Min.X, p.X), math.Min(b.Min.Y, p.Y), math.Min(b.Min.Z, p.Z)},
		Max: Vec3{math.Max(b.Max.X, p.X), math.Max(b.Max.Y, p.Y), math.Max(b.Max.Z, p.Z)},
	}
}

// Union returns the smallest box containing both boxes.
func (b AABB) Union(o AABB) AABB {
	return AABB{
		Min: Vec3{math.Min(b.Min.X, o.Min.X), math.Min(b.Min.Y, o.Min.Y), math.Min(b.Min.Z, o.Min.Z)},
		Max: Vec3{math.Max(b.Max.X, o.Max.X), math.Max(b.Max.Y, o.Max.Y), math.Max(b.Max.Z, o.Max.Z)},
	}
}

// Contains reports whether p lies inside or on the boundary of b.
func (b AABB) Contains(p Vec3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// Overlaps reports whether the two boxes share any volume (touching faces
// count as overlapping).
func (b AABB) Overlaps(o AABB) bool {
	return b.Min.X <= o.Max.X && b.Max.X >= o.Min.X &&
		b.Min.Y <= o.Max.Y && b.Max.Y >= o.Min.Y &&
		b.Min.Z <= o.Max.Z && b.Max.Z >= o.Min.Z
}

// Center returns the centroid of the box.
func (b AABB) Center() Vec3 {
	return Vec3{(b.Min.X + b.Max.X) / 2, (b.Min.Y + b.Max.Y) / 2, (b.Min.Z + b.Max.Z) / 2}
}

// Size returns the per-axis extents of the box.
func (b AABB) Size() Vec3 {
	return b.Max.Sub(b.Min)
}

// Pad returns the box grown by eps in every direction. Octree construction
// pads boxes so patches exactly on cell boundaries are never lost to
// round-off.
func (b AABB) Pad(eps float64) AABB {
	e := Vec3{eps, eps, eps}
	return AABB{Min: b.Min.Sub(e), Max: b.Max.Add(e)}
}

// Octant returns the i-th (0..7) child box of the standard octree
// subdivision of b, where bit 0 selects the upper X half, bit 1 the upper Y
// half, and bit 2 the upper Z half.
func (b AABB) Octant(i int) AABB {
	c := b.Center()
	o := b
	if i&1 != 0 {
		o.Min.X = c.X
	} else {
		o.Max.X = c.X
	}
	if i&2 != 0 {
		o.Min.Y = c.Y
	} else {
		o.Max.Y = c.Y
	}
	if i&4 != 0 {
		o.Min.Z = c.Z
	} else {
		o.Max.Z = c.Z
	}
	return o
}
