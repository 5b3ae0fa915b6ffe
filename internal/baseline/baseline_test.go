package baseline

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/scenes"
)

// --- Radiosity ---

func smallRadiosityScene(t testing.TB) (*geom.Scene, []float64, []float64) {
	t.Helper()
	sc, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	n := len(sc.Geom.Patches)
	rho := make([]float64, n)
	e := make([]float64, n)
	for i := range rho {
		rho[i] = 0.6
		if sc.Geom.Patches[i].IsLuminaire() {
			e[i] = 1
			rho[i] = 0
		}
	}
	return sc.Geom, rho, e
}

func TestFormFactorRowSumsNearOne(t *testing.T) {
	g, rho, e := smallRadiosityScene(t)
	sys, err := NewRadiositySystem(g, rho, e, 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, sum := range sys.RowSums() {
		if math.Abs(sum-1) > 0.05 {
			t.Errorf("patch %d: row sum %v, want ~1 (closed room)", i, sum)
		}
	}
}

func TestRadiosityDiagonallyDominant(t *testing.T) {
	g, rho, e := smallRadiosityScene(t)
	sys, err := NewRadiositySystem(g, rho, e, 2000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.DiagonallyDominant() {
		t.Fatal("system not diagonally dominant; Gerschgorin argument violated")
	}
}

func TestJacobiAndGaussSeidelAgree(t *testing.T) {
	g, rho, e := smallRadiosityScene(t)
	sys, err := NewRadiositySystem(g, rho, e, 3000, 3)
	if err != nil {
		t.Fatal(err)
	}
	bj, itJ := sys.SolveJacobi(1e-10, 1000)
	bg, itG := sys.SolveGaussSeidel(1e-10, 1000)
	for i := range bj {
		if math.Abs(bj[i]-bg[i]) > 1e-6 {
			t.Fatalf("patch %d: Jacobi %v != Gauss-Seidel %v", i, bj[i], bg[i])
		}
	}
	if itG > itJ {
		t.Errorf("Gauss-Seidel took %d iterations, Jacobi %d; expected GS <= J", itG, itJ)
	}
}

func TestRadiositySolutionExceedsEmission(t *testing.T) {
	// Interreflection adds energy to every reflective patch: b >= e, with
	// strict inequality somewhere.
	g, rho, e := smallRadiosityScene(t)
	sys, err := NewRadiositySystem(g, rho, e, 3000, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := sys.SolveJacobi(1e-9, 1000)
	grew := false
	for i := range b {
		if b[i] < e[i]-1e-9 {
			t.Fatalf("patch %d radiosity %v below emission %v", i, b[i], e[i])
		}
		if b[i] > e[i]+1e-6 {
			grew = true
		}
	}
	if !grew {
		t.Fatal("no interreflection at all")
	}
}

func TestRadiosityValidation(t *testing.T) {
	g, rho, e := smallRadiosityScene(t)
	bad := append([]float64(nil), rho...)
	bad[0] = 1.0
	if _, err := NewRadiositySystem(g, bad, e, 100, 1); err == nil {
		t.Error("reflectivity 1.0 accepted")
	}
	if _, err := NewRadiositySystem(g, rho[:2], e, 100, 1); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestHierarchicalRadiositySubdivides(t *testing.T) {
	sc, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	hr := NewHierarchicalRadiosity(sc.Geom, 0.05, 0.01)
	before := hr.LeafCount()
	after := hr.Refine(200)
	if after <= before {
		t.Fatalf("refinement did not subdivide: %d -> %d", before, after)
	}
}

func TestHierarchicalRadiosityPatchProliferation(t *testing.T) {
	// The dissertation's criticism: a tighter form-factor epsilon multiplies
	// patches regardless of whether they matter to the answer.
	sc, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	loose := NewHierarchicalRadiosity(sc.Geom, 0.1, 0.005)
	tight := NewHierarchicalRadiosity(sc.Geom, 0.02, 0.005)
	nLoose := loose.Refine(400)
	nTight := tight.Refine(400)
	if nTight <= nLoose {
		t.Fatalf("tight epsilon %d patches vs loose %d; expected proliferation", nTight, nLoose)
	}
}

func TestHRNodeGeometry(t *testing.T) {
	sc, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	root := &HRNode{Patch: &sc.Geom.Patches[0], S0: 0, S1: 1, T0: 0, T1: 1}
	subdivide(root)
	if len(root.Children) != 4 {
		t.Fatalf("subdivide produced %d children", len(root.Children))
	}
	var area float64
	for _, c := range root.Children {
		area += c.Area()
	}
	if math.Abs(area-root.Area()) > 1e-9 {
		t.Fatalf("children area %v != parent %v", area, root.Area())
	}
}

// --- Density estimation ---

func TestDensityHitFileIsLinearInPhotons(t *testing.T) {
	sc, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	a, err := TraceDensity(sc, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TraceDensity(sc, 8000, 1)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(b.FileBytes) / float64(a.FileBytes)
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("4x photons grew hit file %vx; expected ~linear", ratio)
	}
}

func TestPhotonStorageFarSmallerThanHitFile(t *testing.T) {
	// The headline storage claim: the bin forest is 1-2 orders of magnitude
	// smaller than the equivalent ray-history file.
	sc, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	const photons = 100000
	den, err := TraceDensity(sc, photons, 1)
	if err != nil {
		t.Fatal(err)
	}
	photonBytes, err := PhotonStorageBytes(sc, photons, 1)
	if err != nil {
		t.Fatal(err)
	}
	if photonBytes*10 > den.FileBytes {
		t.Fatalf("Photon forest %d bytes vs hit file %d bytes; want >=10x saving",
			photonBytes, den.FileBytes)
	}
}

func TestLargestSurfaceFractionBounds(t *testing.T) {
	sc, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	res, err := TraceDensity(sc, 10000, 3)
	if err != nil {
		t.Fatal(err)
	}
	f := res.LargestSurfaceFraction()
	if f <= 0 || f >= 1 {
		t.Fatalf("largest surface fraction %v", f)
	}
}

func TestMeshingSpeedupMatchesPaper(t *testing.T) {
	// With f = 0.06 the meshing speedup at 16 procs is ~8.5; with f = 0.16
	// it collapses to ~4.5 — both numbers reported by Zareski et al.
	if s := MeshingSpeedup(0.06, 16); math.Abs(s-8.42) > 0.5 {
		t.Errorf("MeshingSpeedup(0.06, 16) = %v, want ~8.5", s)
	}
	if s := MeshingSpeedup(0.167, 16); math.Abs(s-4.5) > 0.5 {
		t.Errorf("MeshingSpeedup(0.167, 16) = %v, want ~4.5", s)
	}
}

func TestTracingSpeedupNearLinear(t *testing.T) {
	// ~15 on 16 processors.
	if s := TracingSpeedup(16); s < 14 || s > 16 {
		t.Fatalf("TracingSpeedup(16) = %v, want ~15", s)
	}
	if s := TracingSpeedup(1); s != 1 {
		t.Fatalf("TracingSpeedup(1) = %v", s)
	}
}

func TestDensityPhaseGapIsTheMotivation(t *testing.T) {
	// The whole point of Photon's parallel design: the density-estimation
	// pipeline's second phase scales far worse than its first.
	sc, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	res, err := TraceDensity(sc, 20000, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := res.LargestSurfaceFraction()
	trace := TracingSpeedup(16)
	mesh := MeshingSpeedup(f, 16)
	if mesh >= trace {
		t.Fatalf("meshing speedup %v not below tracing %v (f=%v)", mesh, trace, f)
	}
}
