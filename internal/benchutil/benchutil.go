// Package benchutil defines the intersection benchmark's ray set, shared by
// bench_test.go (`go test -bench`) and the benchmark's geom layer
// (bench/layers.go), so both measure the same rays.
package benchutil

import (
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/sampler"
	"repro/internal/vecmath"
)

// Rays returns the deterministic intersection-benchmark ray set for a
// scene: origins uniform in the slightly shrunk bounding box (fixed seed),
// directions uniform on the sphere.
func Rays(g *geom.Scene, n int) []vecmath.Ray {
	r := rng.New(2)
	bounds := g.Bounds()
	size := bounds.Size()
	rays := make([]vecmath.Ray, n)
	for i := range rays {
		rays[i] = vecmath.Ray{
			Origin: vecmath.V(
				bounds.Min.X+size.X*(0.05+0.9*r.Float64()),
				bounds.Min.Y+size.Y*(0.05+0.9*r.Float64()),
				bounds.Min.Z+size.Z*(0.05+0.9*r.Float64()),
			),
			Dir: sampler.UniformSphere(r),
		}
	}
	return rays
}
