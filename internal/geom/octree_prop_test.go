package geom

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/sampler"
	"repro/internal/vecmath"
)

// The octree's one correctness obligation: Intersect must agree with the
// O(n) reference on every ray. checkAgainstBrute asserts found-ness, hit
// distance within tolerance, and hit patch identity — except when two
// distinct patches are hit at exactly the same T (a ray down a shared
// edge), where both answers are correct and only the distance must agree.
func checkAgainstBrute(t *testing.T, s *Scene, ray vecmath.Ray, label string) {
	t.Helper()
	var ho, hb Hit
	fo := s.Intersect(ray, &ho)
	fb := s.IntersectBrute(ray, &hb)
	if fo != fb {
		t.Fatalf("%s ray %+v: octree found=%v brute found=%v", label, ray, fo, fb)
	}
	if !fo {
		return
	}
	if math.Abs(ho.T-hb.T) > 1e-9 {
		t.Fatalf("%s ray %+v: octree t=%v brute t=%v", label, ray, ho.T, hb.T)
	}
	if ho.Patch.ID != hb.Patch.ID && ho.T != hb.T {
		t.Fatalf("%s ray %+v: octree patch %d t=%v, brute patch %d t=%v",
			label, ray, ho.Patch.ID, ho.T, hb.Patch.ID, hb.T)
	}
}

// TestOctreePropertyMatchesBrute sweeps randomized scenes of several sizes
// with the ray classes that historically break octree traversals: uniform
// random rays, axis-parallel rays (zero direction components exercise the
// slab test's IEEE-infinity path), rays from deep inside leaf cells, rays
// originating exactly on patches, and rays aimed through the root center —
// the point shared by all eight octant boundaries.
func TestOctreePropertyMatchesBrute(t *testing.T) {
	sizes := []int{0, 1, 7, 60, 400}
	for si, n := range sizes {
		s := boxScene(t, 10, n, int64(100+si))
		r := rng.New(int64(7 * (si + 1)))
		center := s.Octree().Bounds().Center()
		axes := [6]vecmath.Vec3{
			vecmath.V(1, 0, 0), vecmath.V(-1, 0, 0),
			vecmath.V(0, 1, 0), vecmath.V(0, -1, 0),
			vecmath.V(0, 0, 1), vecmath.V(0, 0, -1),
		}
		for i := 0; i < 400; i++ {
			origin := vecmath.V(r.Float64()*12-1, r.Float64()*12-1, r.Float64()*12-1)
			checkAgainstBrute(t, s, vecmath.Ray{Origin: origin, Dir: sampler.UniformSphere(r)}, "uniform")
			checkAgainstBrute(t, s, vecmath.Ray{Origin: origin, Dir: axes[i%6]}, "axis-parallel")
			// Through the root center: the hit lands on (or crosses) every
			// octant midplane at once.
			toCenter := center.Sub(origin)
			if toCenter.Len() > 0 {
				checkAgainstBrute(t, s, vecmath.Ray{Origin: origin, Dir: toCenter.Norm()}, "through-center")
			}
			// From the exact center outward: the origin sits on all three
			// octant boundaries.
			checkAgainstBrute(t, s, vecmath.Ray{Origin: center, Dir: sampler.UniformSphere(r)}, "from-center")
			// From a point exactly on a patch surface (the
			// photon-continuation case): tMin must keep the source patch
			// from shadowing itself identically in both intersectors.
			p := &s.Patches[i%len(s.Patches)]
			onPatch := p.Point(r.Float64(), r.Float64())
			checkAgainstBrute(t, s, vecmath.Ray{Origin: onPatch, Dir: sampler.UniformSphere(r)}, "on-patch")
		}
		// Interior-of-leaf origins: walk to a few leaf cells and shoot from
		// strictly inside them in every axis direction.
		for i := 0; i < 60; i++ {
			origin := vecmath.V(0.5+9*r.Float64(), 0.5+9*r.Float64(), 0.5+9*r.Float64())
			for _, d := range axes {
				checkAgainstBrute(t, s, vecmath.Ray{Origin: origin, Dir: d}, "inside-leaf-axis")
			}
		}
	}
}

// TestOctreeDeepSceneMatchesBrute drives construction to the depth cap with
// a dense cluster (many patches overlapping one octant chain) and verifies
// traversal agreement there too.
func TestOctreeDeepSceneMatchesBrute(t *testing.T) {
	patches := roomPatches(10)
	r := rng.New(55)
	for i := 0; i < 300; i++ {
		// Cluster in a 0.2-wide cube so subdivision recurses hard.
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
	for i := 0; i < 2000; i++ {
		origin := vecmath.V(r.Float64()*10, r.Float64()*10, r.Float64()*10)
		checkAgainstBrute(t, s, vecmath.Ray{Origin: origin, Dir: sampler.UniformSphere(r)}, "deep")
	}
	// Aim straight at the cluster from afar so the tight cells are reached
	// through many interior levels.
	for i := 0; i < 500; i++ {
		origin := vecmath.V(9, 9, 9)
		target := vecmath.V(1+0.2*r.Float64(), 1+0.2*r.Float64(), 1+0.2*r.Float64())
		checkAgainstBrute(t, s, vecmath.Ray{Origin: origin, Dir: target.Sub(origin).Norm()}, "deep-aimed")
	}
}

// FuzzOctreeIntersect feeds arbitrary ray origins/directions (plus a scene
// selector) through the octree-vs-brute property. Non-finite and zero
// directions are skipped: Ray documents unit-length Dir, and NaN components
// make Patch.Intersect's comparisons vacuous in both intersectors.
func FuzzOctreeIntersect(f *testing.F) {
	scenesBySel := make(map[uint8]*Scene)
	scene := func(sel uint8) *Scene {
		sel %= 4
		if s, ok := scenesBySel[sel]; ok {
			return s
		}
		n := []int{0, 20, 150, 500}[sel]
		patches := roomPatches(10)
		r := rng.New(int64(sel) + 1)
		for i := 0; i < n; i++ {
			o := vecmath.V(r.Float64()*8, r.Float64()*8, r.Float64()*8)
			e1 := vecmath.V(r.Float64()*0.5+0.05, r.Float64()*0.2, r.Float64()*0.2)
			e2 := vecmath.V(r.Float64()*0.2, r.Float64()*0.5+0.05, r.Float64()*0.2)
			patches = append(patches, Patch{Origin: o, EdgeS: e1, EdgeT: e2})
		}
		s, err := NewScene(patches)
		if err != nil {
			panic(err)
		}
		scenesBySel[sel] = s
		return s
	}
	f.Add(uint8(0), 5.0, 5.0, 5.0, 1.0, 0.0, 0.0)
	f.Add(uint8(1), 1.0, 2.0, 3.0, 0.0, 0.0, -1.0)
	f.Add(uint8(2), 5.0, 5.0, 5.0, 1.0, 1.0, 1.0)
	f.Add(uint8(3), -1.0, 11.0, 5.0, 1.0, -1.0, 0.0)
	f.Add(uint8(2), 5.0, 5.0, 5.0, -0.0, 0.0, 1.0) // negative zero selects the Max slab
	f.Fuzz(func(t *testing.T, sel uint8, ox, oy, oz, dx, dy, dz float64) {
		d := vecmath.V(dx, dy, dz)
		o := vecmath.V(ox, oy, oz)
		if !d.IsFinite() || !o.IsFinite() || d.Len() == 0 {
			t.Skip()
		}
		s := scene(sel)
		ray := vecmath.Ray{Origin: o, Dir: d.Norm()}
		var ho, hb Hit
		fo := s.Intersect(ray, &ho)
		fb := s.IntersectBrute(ray, &hb)
		if fo != fb {
			t.Fatalf("octree found=%v brute found=%v (ray %+v)", fo, fb, ray)
		}
		if fo {
			if math.Abs(ho.T-hb.T) > 1e-9 {
				t.Fatalf("octree t=%v brute t=%v (ray %+v)", ho.T, hb.T, ray)
			}
			if ho.Patch.ID != hb.Patch.ID && ho.T != hb.T {
				t.Fatalf("octree patch %d, brute patch %d at different t (ray %+v)",
					ho.Patch.ID, hb.Patch.ID, ray)
			}
		}
	})
}

// TestOctreeSpanningPatchesBuildInstantly is the regression test for the
// construction rollback: when every patch overlaps every octant,
// subdivision makes no progress at any depth. The builder must detect that
// from the octant subsets alone and stay a leaf — the old code recursed
// into all 8 children (each again seeing every patch) before discarding
// them, an O(8^MaxDepth) explosion that would hang this test for minutes.
func TestOctreeSpanningPatchesBuildInstantly(t *testing.T) {
	var patches []Patch
	for i := 0; i < 64; i++ {
		// Big diagonal patches whose bounds cover the whole scene box.
		patches = append(patches, Patch{
			Origin: vecmath.V(0, 0, float64(i)*0.01),
			EdgeS:  vecmath.V(10, 0, 5),
			EdgeT:  vecmath.V(0, 10, 5),
		})
	}
	patches[0].Emission = vecmath.V(1, 1, 1)
	s, err := NewScene(patches)
	if err != nil {
		t.Fatal(err)
	}
	nodes, leaves, depth := s.Octree().Stats()
	if nodes != 1 || leaves != 1 || depth != 0 {
		t.Fatalf("spanning-patch octree: nodes=%d leaves=%d depth=%d, want a single root leaf",
			nodes, leaves, depth)
	}
	r := rng.New(3)
	for i := 0; i < 500; i++ {
		origin := vecmath.V(r.Float64()*10, r.Float64()*10, r.Float64()*10)
		checkAgainstBrute(t, s, vecmath.Ray{Origin: origin, Dir: sampler.UniformSphere(r)}, "spanning")
	}
}
