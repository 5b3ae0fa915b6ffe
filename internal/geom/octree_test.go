package geom

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/sampler"
	"repro/internal/vecmath"
)

// boxScene builds an axis-aligned empty room [0,size]^3 with a ceiling light
// plus n random small interior patches.
func boxScene(t testing.TB, size float64, n int, seed int64) *Scene {
	t.Helper()
	patches := roomPatches(size)
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		o := vecmath.V(r.Float64()*size*0.8, r.Float64()*size*0.8, r.Float64()*size*0.8)
		e1 := vecmath.V(r.Float64()*0.5+0.05, r.Float64()*0.2, r.Float64()*0.2)
		e2 := vecmath.V(r.Float64()*0.2, r.Float64()*0.5+0.05, r.Float64()*0.2)
		patches = append(patches, Patch{Origin: o, EdgeS: e1, EdgeT: e2})
	}
	s, err := NewScene(patches)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// roomPatches returns the six walls of a cube room (normals inward) and a
// small emissive ceiling panel.
func roomPatches(size float64) []Patch {
	s := size
	return []Patch{
		// floor (z=0, normal +z)
		{Origin: vecmath.V(0, 0, 0), EdgeS: vecmath.V(s, 0, 0), EdgeT: vecmath.V(0, s, 0)},
		// ceiling (z=s, normal -z)
		{Origin: vecmath.V(0, 0, s), EdgeS: vecmath.V(0, s, 0), EdgeT: vecmath.V(s, 0, 0)},
		// left wall (x=0, normal +x)
		{Origin: vecmath.V(0, 0, 0), EdgeS: vecmath.V(0, 0, s), EdgeT: vecmath.V(0, s, 0)},
		// right wall (x=s, normal -x)
		{Origin: vecmath.V(s, 0, 0), EdgeS: vecmath.V(0, s, 0), EdgeT: vecmath.V(0, 0, s)},
		// back wall (y=0, normal +y)
		{Origin: vecmath.V(0, 0, 0), EdgeS: vecmath.V(s, 0, 0), EdgeT: vecmath.V(0, 0, s)},
		// front wall (y=s, normal -y)
		{Origin: vecmath.V(0, s, 0), EdgeS: vecmath.V(0, 0, s), EdgeT: vecmath.V(s, 0, 0)},
		// ceiling light panel
		{
			Origin: vecmath.V(s*0.4, s*0.4, s*0.999),
			EdgeS:  vecmath.V(0, s*0.2, 0), EdgeT: vecmath.V(s*0.2, 0, 0),
			Emission: vecmath.V(1, 1, 1),
		},
	}
}

func TestNewSceneAssignsIDs(t *testing.T) {
	s := boxScene(t, 10, 5, 1)
	for i := range s.Patches {
		if s.Patches[i].ID != i {
			t.Fatalf("patch %d has ID %d", i, s.Patches[i].ID)
		}
	}
}

func TestNewSceneFindsLuminaires(t *testing.T) {
	s := boxScene(t, 10, 0, 1)
	if len(s.Luminaires) != 1 || s.Luminaires[0] != 6 {
		t.Fatalf("luminaires = %v", s.Luminaires)
	}
}

func TestNewSceneRejectsEmpty(t *testing.T) {
	if _, err := NewScene(nil); err == nil {
		t.Fatal("empty scene accepted")
	}
}

func TestNewSceneRejectsDark(t *testing.T) {
	p := Patch{Origin: vecmath.V(0, 0, 0), EdgeS: vecmath.V(1, 0, 0), EdgeT: vecmath.V(0, 1, 0)}
	if _, err := NewScene([]Patch{p}); err == nil {
		t.Fatal("scene with no luminaires accepted")
	}
}

func TestOctreeMatchesBruteForce(t *testing.T) {
	// The load-bearing correctness property: for thousands of random rays,
	// the octree and the O(n) reference return the same closest hit.
	s := boxScene(t, 10, 300, 42)
	r := rng.New(7)
	for i := 0; i < 3000; i++ {
		origin := vecmath.V(r.Float64()*10, r.Float64()*10, r.Float64()*10)
		dir := sampler.UniformSphere(r)
		ray := vecmath.Ray{Origin: origin, Dir: dir}
		var ho, hb Hit
		fo := s.Intersect(ray, &ho)
		fb := s.IntersectBrute(ray, &hb)
		if fo != fb {
			t.Fatalf("ray %d: octree found=%v brute found=%v", i, fo, fb)
		}
		if fo && (ho.Patch.ID != hb.Patch.ID || math.Abs(ho.T-hb.T) > 1e-9) {
			t.Fatalf("ray %d: octree hit patch %d t=%v, brute patch %d t=%v",
				i, ho.Patch.ID, ho.T, hb.Patch.ID, hb.T)
		}
	}
}

func TestOctreeFirstHitIsClosest(t *testing.T) {
	// Stack three parallel patches; a ray through all of them must return
	// the nearest.
	patches := []Patch{
		{Origin: vecmath.V(0, 0, 3), EdgeS: vecmath.V(1, 0, 0), EdgeT: vecmath.V(0, 1, 0)},
		{Origin: vecmath.V(0, 0, 1), EdgeS: vecmath.V(1, 0, 0), EdgeT: vecmath.V(0, 1, 0)},
		{Origin: vecmath.V(0, 0, 2), EdgeS: vecmath.V(1, 0, 0), EdgeT: vecmath.V(0, 1, 0),
			Emission: vecmath.V(1, 1, 1)},
	}
	s, err := NewScene(patches)
	if err != nil {
		t.Fatal(err)
	}
	r := vecmath.Ray{Origin: vecmath.V(0.5, 0.5, 5), Dir: vecmath.V(0, 0, -1)}
	var h Hit
	if !s.Intersect(r, &h) {
		t.Fatal("expected hit")
	}
	if math.Abs(h.T-2) > 1e-9 || h.Point.Z != 3 {
		t.Fatalf("closest hit at t=%v z=%v, want the z=3 patch", h.T, h.Point.Z)
	}
}

func TestOctreeInsideClosedRoomAlwaysHits(t *testing.T) {
	// From inside a closed room every ray hits something.
	s := boxScene(t, 10, 50, 3)
	r := rng.New(11)
	for i := 0; i < 2000; i++ {
		origin := vecmath.V(1+8*r.Float64(), 1+8*r.Float64(), 1+8*r.Float64())
		ray := vecmath.Ray{Origin: origin, Dir: sampler.UniformSphere(r)}
		var h Hit
		if !s.Intersect(ray, &h) {
			t.Fatalf("ray %d from %v escaped a closed room", i, origin)
		}
	}
}

func TestOctreeStats(t *testing.T) {
	s := boxScene(t, 10, 500, 9)
	nodes, leaves, depth := s.Octree().Stats()
	if nodes == 0 || leaves == 0 {
		t.Fatalf("stats empty: nodes=%d leaves=%d", nodes, leaves)
	}
	if depth == 0 {
		t.Fatal("500-patch octree did not subdivide")
	}
	if depth > DefaultOctreeConfig().MaxDepth {
		t.Fatalf("depth %d exceeds max", depth)
	}
}

func TestRegionOf(t *testing.T) {
	s := boxScene(t, 10, 0, 1)
	o := s.Octree()
	c := o.Bounds().Center()
	if got := o.RegionOf(c.Add(vecmath.V(1, 1, 1))); got != 7 {
		t.Errorf("upper octant = %d, want 7", got)
	}
	if got := o.RegionOf(c.Sub(vecmath.V(1, 1, 1))); got != 0 {
		t.Errorf("lower octant = %d, want 0", got)
	}
	if got := o.RegionOf(vecmath.V(1e6, 0, 0)); got != -1 {
		t.Errorf("outside point region = %d, want -1", got)
	}
}

func TestTotalAreaAndPower(t *testing.T) {
	s := boxScene(t, 10, 0, 1)
	// 6 walls of 100 each + light of 4.
	if a := s.TotalArea(); math.Abs(a-604) > 1e-6 {
		t.Errorf("total area = %v, want 604", a)
	}
	if p := s.TotalEmissionPower(); math.Abs(p-4) > 1e-6 {
		t.Errorf("emission power = %v, want 4 (area 4, luminance 1)", p)
	}
}

func TestSceneBoundsContainEverything(t *testing.T) {
	s := boxScene(t, 10, 80, 2)
	b := s.Bounds()
	for i := range s.Patches {
		pb := s.Patches[i].Bounds()
		if !b.Contains(pb.Min) || !b.Contains(pb.Max) {
			t.Fatalf("patch %d outside scene bounds", i)
		}
	}
}

func BenchmarkOctreeIntersect(b *testing.B) {
	s := boxScene(b, 10, 2000, 1)
	r := rng.New(2)
	rays := make([]vecmath.Ray, 1024)
	for i := range rays {
		rays[i] = vecmath.Ray{
			Origin: vecmath.V(r.Float64()*10, r.Float64()*10, r.Float64()*10),
			Dir:    sampler.UniformSphere(r),
		}
	}
	var h Hit
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Intersect(rays[i&1023], &h)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrays/s")
}

// BenchmarkOctreeBuild measures construction over a 2000-patch randomized
// scene: the cost a request pays the first time a generated scene is
// simulated, parallelized per subtree above the cutoff.
func BenchmarkOctreeBuild(b *testing.B) {
	s := boxScene(b, 10, 2000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildOctree(s.Patches, DefaultOctreeConfig())
	}
}

func BenchmarkBruteIntersect(b *testing.B) {
	s := boxScene(b, 10, 2000, 1)
	r := rng.New(2)
	rays := make([]vecmath.Ray, 1024)
	for i := range rays {
		rays[i] = vecmath.Ray{
			Origin: vecmath.V(r.Float64()*10, r.Float64()*10, r.Float64()*10),
			Dir:    sampler.UniformSphere(r),
		}
	}
	var h Hit
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.IntersectBrute(rays[i&1023], &h)
	}
}
