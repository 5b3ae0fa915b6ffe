package geom

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/sampler"
	"repro/internal/vecmath"
)

// bruteRange is the O(n) reference over an explicit (tMin, tMax): every
// patch in index order, keeping the closest hit. It shares no code with the
// octree walk beyond Patch.Intersect itself.
func bruteRange(s *Scene, r vecmath.Ray, tMin, tMax float64, h *Hit) bool {
	found := false
	var tmp Hit
	for i := range s.Patches {
		if s.Patches[i].Intersect(r, tMin, tMax, &tmp) {
			*h = tmp
			tMax = tmp.T
			found = true
		}
	}
	return found
}

// checkHitMatchesBrute requires a traversal result to equal the brute-force
// one: the same found-ness and, for the same patch, the same Hit down to
// every float bit. Two distinct patches are accepted only at exactly the
// same T (a ray down a shared edge), where both answers are correct.
func checkHitMatchesBrute(t *testing.T, s *Scene, r vecmath.Ray, tMin, tMax float64, got Hit, gotFound bool, label string) {
	t.Helper()
	var want Hit
	wantFound := bruteRange(s, r, tMin, tMax, &want)
	if gotFound != wantFound {
		t.Fatalf("%s ray %+v (%v, %v): packet found=%v brute found=%v", label, r, tMin, tMax, gotFound, wantFound)
	}
	if !wantFound {
		return
	}
	if got.Patch.ID == want.Patch.ID && got != want {
		t.Fatalf("%s ray %+v: packet hit differs from brute:\npacket: %+v\nbrute:  %+v", label, r, got, want)
	}
	if got.Patch.ID != want.Patch.ID && got.T != want.T {
		t.Fatalf("%s ray %+v: packet patch %d t=%v, brute patch %d t=%v",
			label, r, got.Patch.ID, got.T, want.Patch.ID, want.T)
	}
}

// checkPacketMatchesBrute traces the rays as a single packet over the scene
// range (Eps, +Inf) and checks every ray against the brute-force reference.
func checkPacketMatchesBrute(t *testing.T, s *Scene, rays []vecmath.Ray, label string) {
	t.Helper()
	var packet RayPacket
	var scratch PacketScratch
	for _, r := range rays {
		packet.Append(r)
	}
	hits := make([]Hit, len(rays))
	found := make([]bool, len(rays))
	s.IntersectPacket(&packet, hits, found, &scratch)
	for i, r := range rays {
		checkHitMatchesBrute(t, s, r, Eps, math.Inf(1), hits[i], found[i], label)
	}
}

// TestIntersectPacketMatchesScalar sweeps the packet traversal against the
// brute-force reference over randomized scenes of several sizes with the
// historically dangerous ray classes: uniform rays, axis-parallel rays
// (IEEE-infinity reciprocals), rays through the root center and rays
// originating exactly on patches — all in single shared packets, so rays
// of every direction sign reuse one stack back to back.
func TestIntersectPacketMatchesScalar(t *testing.T) {
	sizes := []int{0, 1, 7, 60, 400}
	for si, n := range sizes {
		s := boxScene(t, 10, n, int64(300+si))
		r := rng.New(int64(11 * (si + 1)))
		center := s.Octree().Bounds().Center()
		axes := [6]vecmath.Vec3{
			vecmath.V(1, 0, 0), vecmath.V(-1, 0, 0),
			vecmath.V(0, 1, 0), vecmath.V(0, -1, 0),
			vecmath.V(0, 0, 1), vecmath.V(0, 0, -1),
		}
		var rays []vecmath.Ray
		for i := 0; i < 300; i++ {
			origin := vecmath.V(r.Float64()*12-1, r.Float64()*12-1, r.Float64()*12-1)
			rays = append(rays,
				vecmath.Ray{Origin: origin, Dir: sampler.UniformSphere(r)},
				vecmath.Ray{Origin: origin, Dir: axes[i%6]},
				vecmath.Ray{Origin: center, Dir: sampler.UniformSphere(r)},
			)
			if toCenter := center.Sub(origin); toCenter.Len() > 0 {
				rays = append(rays, vecmath.Ray{Origin: origin, Dir: toCenter.Norm()})
			}
			p := &s.Patches[i%len(s.Patches)]
			rays = append(rays, vecmath.Ray{
				Origin: p.Point(r.Float64(), r.Float64()), Dir: sampler.UniformSphere(r),
			})
		}
		checkPacketMatchesBrute(t, s, rays, "mixed")
	}
}

// TestIntersectPacketDeepScene reruns the depth-cap cluster scene through
// the packet path: many interior levels, tight cells, and aimed rays that
// traverse the whole octant chain together.
func TestIntersectPacketDeepScene(t *testing.T) {
	patches := roomPatches(10)
	r := rng.New(77)
	for i := 0; i < 300; i++ {
		o := vecmath.V(1+0.2*r.Float64(), 1+0.2*r.Float64(), 1+0.2*r.Float64())
		patches = append(patches, Patch{
			Origin: o,
			EdgeS:  vecmath.V(0.02+0.05*r.Float64(), 0.01*r.Float64(), 0),
			EdgeT:  vecmath.V(0, 0.02+0.05*r.Float64(), 0.01*r.Float64()),
		})
	}
	s, err := NewScene(patches)
	if err != nil {
		t.Fatal(err)
	}
	var rays []vecmath.Ray
	for i := 0; i < 1000; i++ {
		origin := vecmath.V(r.Float64()*10, r.Float64()*10, r.Float64()*10)
		rays = append(rays, vecmath.Ray{Origin: origin, Dir: sampler.UniformSphere(r)})
	}
	for i := 0; i < 300; i++ {
		origin := vecmath.V(9, 9, 9)
		target := vecmath.V(1+0.2*r.Float64(), 1+0.2*r.Float64(), 1+0.2*r.Float64())
		rays = append(rays, vecmath.Ray{Origin: origin, Dir: target.Sub(origin).Norm()})
	}
	checkPacketMatchesBrute(t, s, rays, "deep")
}

// TestIntersectPacketDegenerateSizes pins the edge widths: an empty packet
// is a no-op, and 1-ray packets (the batch=1 conformance configuration)
// find the reference hit.
func TestIntersectPacketDegenerateSizes(t *testing.T) {
	s := boxScene(t, 10, 40, 9)
	var packet RayPacket
	var scratch PacketScratch
	s.IntersectPacket(&packet, nil, nil, &scratch) // empty: must not panic

	r := rng.New(13)
	for i := 0; i < 200; i++ {
		origin := vecmath.V(r.Float64()*10, r.Float64()*10, r.Float64()*10)
		checkPacketMatchesBrute(t, s,
			[]vecmath.Ray{{Origin: origin, Dir: sampler.UniformSphere(r)}}, "single")
	}
}

// TestIntersectPacketScratchReuse runs several packets of varying size
// through ONE scratch + packet pair, interleaving sizes so stale stack or
// packet state from a larger previous packet would be caught.
func TestIntersectPacketScratchReuse(t *testing.T) {
	s := boxScene(t, 10, 60, 21)
	r := rng.New(31)
	var packet RayPacket
	var scratch PacketScratch
	for _, n := range []int{64, 3, 128, 1, 17} {
		packet.Reset()
		rays := make([]vecmath.Ray, n)
		for i := range rays {
			rays[i] = vecmath.Ray{
				Origin: vecmath.V(r.Float64()*12-1, r.Float64()*12-1, r.Float64()*12-1),
				Dir:    sampler.UniformSphere(r),
			}
			packet.Append(rays[i])
		}
		hits := make([]Hit, n)
		found := make([]bool, n)
		s.IntersectPacket(&packet, hits, found, &scratch)
		for i, ray := range rays {
			checkHitMatchesBrute(t, s, ray, Eps, math.Inf(1), hits[i], found[i], "reuse")
		}
	}
}

// TestIntersectPacketRangeLimits checks the explicit (tMin, tMax) entry
// point against the brute-force reference at the same limits — a finite
// tMax and a raised tMin.
func TestIntersectPacketRangeLimits(t *testing.T) {
	s := boxScene(t, 10, 60, 43)
	r := rng.New(47)
	var packet RayPacket
	var scratch PacketScratch
	for _, tMin := range []float64{Eps, 1.5} {
		for _, tMax := range []float64{0.5, 3, 20, math.Inf(1)} {
			packet.Reset()
			var rays []vecmath.Ray
			for i := 0; i < 100; i++ {
				ray := vecmath.Ray{
					Origin: vecmath.V(r.Float64()*10, r.Float64()*10, r.Float64()*10),
					Dir:    sampler.UniformSphere(r),
				}
				rays = append(rays, ray)
				packet.Append(ray)
			}
			hits := make([]Hit, len(rays))
			found := make([]bool, len(rays))
			s.Octree().IntersectPacket(&packet, tMin, tMax, hits, found, &scratch)
			for i, ray := range rays {
				checkHitMatchesBrute(t, s, ray, tMin, tMax, hits[i], found[i], "range")
			}
		}
	}
}

// TestIntersectAllocatesNothing pins the zero-allocation contract of the
// single-ray entry point every photon bounce and view ray takes: the node
// stack lives on the caller's frame and the hit record is the caller's.
func TestIntersectAllocatesNothing(t *testing.T) {
	s := boxScene(t, 10, 60, 5)
	ray := vecmath.Ray{Origin: vecmath.V(5, 5, 5), Dir: vecmath.V(0.6, 0, 0.8)}
	var h Hit
	if n := testing.AllocsPerRun(100, func() { s.Intersect(ray, &h) }); n != 0 {
		t.Errorf("Scene.Intersect: %v allocs per call, want 0", n)
	}
}
