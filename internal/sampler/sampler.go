//photon:deterministic — sample sequences are functions of the substream state alone;
// photon-lint (nondeterm, floatreduce) polices this file — see DESIGN.md.

// Package sampler implements the direction-sampling kernels of the Photon
// simulator (chapter 4 of the dissertation).
//
// Two mathematically equivalent cosine-weighted hemisphere samplers are
// provided:
//
//   - ShirleyDirection: the closed-form mapping used by Shirley and Sillion,
//     (cos(2πξ₁)√ξ₂, sin(2πξ₁)√ξ₂, √(1−ξ₂)) — 34 floating-point operations
//     under the Lawrence Livermore convention (sin/cos = 8 ops, sqrt = 4,
//     one random number = 3).
//
//   - GustafsonDirection: the rejection kernel developed by John Gustafson at
//     Ames Laboratory — draw planar coordinate pairs until one falls in the
//     unit circle, then lift to the hemisphere with z = √(1−x²−y²). The
//     expected cost is ≈22 ops (13/(π/4) for the loop + 5 for z + 4 for the
//     square root), which the paper reports as roughly twice as fast.
//
// Both produce Lambertian (cosine-weighted) emission; the tests verify the
// distributions agree. Directional ("limited") luminaires are modelled by
// scaling the unit circle before the lift (Figure 4.4), which restricts the
// emission cone: a scale of sin(0.25°) reproduces the sun's half-degree disc.
package sampler

import (
	"math"

	"repro/internal/rng"
	"repro/internal/vecmath"
)

// Flop costs under the Lawrence Livermore convention the paper uses: one
// pseudo-random number generation costs 3, one sin or cos 8, and one
// square root 4.
const (
	// FlopsShirley is the fixed cost of the closed-form kernel:
	// 2 randoms (6) + 2πξ₁ (1) + cos (8) + sin (8) + √ξ₂ (4) + 2 muls (2)
	// + 1−ξ₂ (1) + √ (4) = 34, as derived in chapter 4.
	FlopsShirley = 34

	// FlopsGustafsonLoop is the cost of one rejection-loop iteration:
	// 2 randoms (6) + 2 scale-shifts (4) + x², y², add (3) = 13.
	FlopsGustafsonLoop = 13

	// FlopsGustafsonTail is the post-loop cost: 1−t (1) + sqrt (4) = 5.
	FlopsGustafsonTail = 5
)

// ExpectedGustafsonFlops returns the expected operation count of the
// rejection kernel: the loop body repeats with acceptance probability π/4,
// giving 13/(π/4) + 5 ≈ 21.55, which the paper rounds to 22.
func ExpectedGustafsonFlops() float64 {
	return FlopsGustafsonLoop/(math.Pi/4) + FlopsGustafsonTail
}

// ShirleyDirection returns a cosine-weighted direction on the unit
// hemisphere about +Z in local coordinates, using the closed-form mapping.
func ShirleyDirection(r *rng.Source) vecmath.Vec3 {
	e1 := r.Float64()
	e2 := r.Float64()
	s := math.Sqrt(e2)
	phi := 2 * math.Pi * e1
	return vecmath.Vec3{
		X: math.Cos(phi) * s,
		Y: math.Sin(phi) * s,
		Z: math.Sqrt(1 - e2),
	}
}

// GustafsonDirection returns a cosine-weighted direction on the unit
// hemisphere about +Z in local coordinates, using the Ames Laboratory
// rejection kernel (Figure 4.3).
func GustafsonDirection(r *rng.Source) vecmath.Vec3 {
	for {
		x := r.Float64()*2 - 1
		y := r.Float64()*2 - 1
		t := x*x + y*y
		if t > 1 {
			continue
		}
		return vecmath.Vec3{X: x, Y: y, Z: math.Sqrt(1 - t)}
	}
}

// LimitedDirection returns a direction from the scaled-circle directional
// model (Figure 4.4): planar coordinates are drawn in a disc of radius
// scale ∈ (0, 1], restricting the cone half-angle θ to asin(scale). A scale
// of 1 is ordinary diffuse emission; SunScale collimates to the solar disc.
func LimitedDirection(r *rng.Source, scale float64) vecmath.Vec3 {
	if scale <= 0 {
		return vecmath.Vec3{Z: 1}
	}
	for {
		x := r.Float64()*2 - 1
		y := r.Float64()*2 - 1
		t := x*x + y*y
		if t > 1 {
			continue
		}
		x *= scale
		y *= scale
		return vecmath.Vec3{X: x, Y: y, Z: math.Sqrt(1 - x*x - y*y)}
	}
}

// SunScale is the circle scale that collimates emission to a quarter-degree
// cone half-angle, reproducing the sun's apparent half-degree disc and the
// distance-dependent shadow blur the paper demonstrates. The paper uses the
// round value 0.005; sin(0.25°) = 0.004363 — we keep the paper's constant.
const SunScale = 0.005

// UniformSphere returns a direction uniform over the full sphere.
func UniformSphere(r *rng.Source) vecmath.Vec3 {
	z := 2*r.Float64() - 1
	phi := 2 * math.Pi * r.Float64()
	s := math.Sqrt(1 - z*z)
	return vecmath.Vec3{X: math.Cos(phi) * s, Y: math.Sin(phi) * s, Z: z}
}

// CylindricalCoords converts a local-frame outgoing direction (unit vector,
// z ≥ 0) into the paper's histogram direction parameterization (Figure 4.5):
// r² is the squared projected radial distance within the unit circle
// (r² = x²+y², so splitting r² in half splits a Lambertian distribution in
// half), and θ ∈ [0, 2π) is the azimuth.
func CylindricalCoords(d vecmath.Vec3) (r2, theta float64) {
	r2 = d.X*d.X + d.Y*d.Y
	if r2 > 1 {
		r2 = 1 // guard against round-off pushing past the unit circle
	}
	theta = math.Atan2(d.Y, d.X)
	if theta < 0 {
		theta += 2 * math.Pi
	}
	if theta >= 2*math.Pi {
		theta = 0
	}
	return r2, theta
}

// DirectionFromCylindrical is the inverse of CylindricalCoords: it rebuilds
// the local-frame unit direction with z ≥ 0. The viewer uses it when
// locating the bin a photon travelling toward the eye would have landed in.
func DirectionFromCylindrical(r2, theta float64) vecmath.Vec3 {
	r2 = vecmath.Clamp(r2, 0, 1)
	r := math.Sqrt(r2)
	return vecmath.Vec3{
		X: r * math.Cos(theta),
		Y: r * math.Sin(theta),
		Z: math.Sqrt(1 - r2),
	}
}
