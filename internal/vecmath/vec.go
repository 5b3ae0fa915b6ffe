//photon:deterministic — this float arithmetic underpins cross-engine bit-identity; no FMA or reassociation;
// photon-lint (nondeterm, floatreduce) polices this file — see DESIGN.md.

// Package vecmath provides the small dense linear-algebra kernel used by the
// Photon global-illumination system: 3-vectors, rays, axis-aligned bounding
// boxes and orthonormal bases.
//
// Everything in this package is a plain value type; none of the operations
// allocate. The simulator traces billions of photons through these routines,
// so they are written to be inlinable and branch-light.
package vecmath

import (
	"fmt"
	"math"
)

// Vec3 is a 3-component vector of float64, used for points, directions and
// RGB radiometric quantities alike.
type Vec3 struct {
	X, Y, Z float64
}

// V is shorthand for constructing a Vec3.
func V(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Mul returns the component-wise (Hadamard) product of v and w. It is the
// natural operation for filtering an RGB power by an RGB reflectance.
func (v Vec3) Mul(w Vec3) Vec3 { return Vec3{v.X * w.X, v.Y * w.Y, v.Z * w.Z} }

// Neg returns -v.
func (v Vec3) Neg() Vec3 { return Vec3{-v.X, -v.Y, -v.Z} }

// Dot returns the inner product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the right-handed cross product v × w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Len returns the Euclidean norm of v.
func (v Vec3) Len() float64 { return math.Sqrt(v.Dot(v)) }

// Len2 returns the squared Euclidean norm of v.
func (v Vec3) Len2() float64 { return v.Dot(v) }

// Norm returns v scaled to unit length. Normalizing the zero vector returns
// the zero vector rather than NaNs, so callers may treat "no direction" as a
// harmless degenerate case.
func (v Vec3) Norm() Vec3 {
	l2 := v.Dot(v)
	if l2 == 0 {
		return Vec3{}
	}
	return v.Scale(1 / math.Sqrt(l2))
}

// Reflect returns the mirror reflection of the *incident* direction v about
// the unit normal n. v points toward the surface; the result points away.
func (v Vec3) Reflect(n Vec3) Vec3 {
	return v.Sub(n.Scale(2 * v.Dot(n)))
}

// MaxComponent returns the largest of the three components.
func (v Vec3) MaxComponent() float64 {
	return math.Max(v.X, math.Max(v.Y, v.Z))
}

// Luminance returns the photometric luminance of an RGB triple using the
// Rec. 709 weights. The viewer uses it for tone mapping; the simulator uses
// it as the scalar survival power for Russian roulette.
func (v Vec3) Luminance() float64 {
	return 0.2126*v.X + 0.7152*v.Y + 0.0722*v.Z
}

// IsFinite reports whether all components are finite (no NaN or Inf).
func (v Vec3) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

// NearEqual reports whether v and w agree component-wise within eps.
func (v Vec3) NearEqual(w Vec3, eps float64) bool {
	return math.Abs(v.X-w.X) <= eps && math.Abs(v.Y-w.Y) <= eps && math.Abs(v.Z-w.Z) <= eps
}

// String implements fmt.Stringer.
func (v Vec3) String() string {
	return fmt.Sprintf("(%g, %g, %g)", v.X, v.Y, v.Z)
}

// Ray is a half-line with unit-length Dir. Photons and viewing rays are both
// represented as rays.
type Ray struct {
	Origin Vec3
	Dir    Vec3
}

// At returns the point Origin + t*Dir.
func (r Ray) At(t float64) Vec3 { return r.Origin.Add(r.Dir.Scale(t)) }

// ONB is a right-handed orthonormal basis. The simulator builds one per
// surface patch so that hemisphere samples expressed in local coordinates
// (tangent U, bitangent V, normal W) can be rotated into world space.
type ONB struct {
	U, V, W Vec3
}

// NewONB constructs an orthonormal basis whose W axis is the unit
// normalization of n, using the branchless Frisvad-style construction.
func NewONB(n Vec3) ONB {
	w := n.Norm()
	// Pick the world axis least aligned with w to start Gram-Schmidt.
	var a Vec3
	if math.Abs(w.X) > 0.9 {
		a = Vec3{0, 1, 0}
	} else {
		a = Vec3{1, 0, 0}
	}
	v := w.Cross(a).Norm()
	u := v.Cross(w)
	return ONB{U: u, V: v, W: w}
}

// ToWorld maps local coordinates (x along U, y along V, z along W) into world
// space.
func (b ONB) ToWorld(x, y, z float64) Vec3 {
	return Vec3{
		x*b.U.X + y*b.V.X + z*b.W.X,
		x*b.U.Y + y*b.V.Y + z*b.W.Y,
		x*b.U.Z + y*b.V.Z + z*b.W.Z,
	}
}

// ToLocal maps a world-space vector into the basis's local coordinates.
func (b ONB) ToLocal(v Vec3) (x, y, z float64) {
	return v.Dot(b.U), v.Dot(b.V), v.Dot(b.W)
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
