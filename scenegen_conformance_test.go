package photon

// The differential-conformance harness: the three fixed-scene matrices
// (photon_conformance_test.go, render_conformance_test.go, the octree
// property tests) generalized into properties that hold over the UNBOUNDED
// scene space internal/scenegen manufactures. For every generated scene:
//
//   - serial, shared (any workers) and distributed (any ranks) produce
//     bit-identical statistics and bit-identical bin forests, and geo
//     matches every trajectory counter;
//   - the octree agrees with the O(n) brute-force intersector on sampled
//     rays;
//   - the tile renderer is byte-identical at any worker count;
//   - generation itself is deterministic, pinned cross-machine and
//     cross-version by a committed golden corpus of forest fingerprints
//     (regenerate with `go test -run SceneGenGolden -update .`).
//
// The scene list spans every generator family — occlusion-dense room
// grids, collimated light arrays, mirror halls, and the adversarial
// degenerate layouts — precisely the geometry variety the fixed rooms
// never exercise.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/sampler"
	"repro/internal/scenegen"
	"repro/internal/vecmath"
)

var updateGolden = flag.Bool("update", false, "regenerate the golden files of the tests -run selects (testdata/*_golden.json)")

// genConformanceSpecs is the differential harness's scene set: one scene
// per generator family (canonical specs). Every test in this file sweeps
// it, so adding a family here buys conformance evidence across all four
// engines, the octree, and the renderer at once.
var genConformanceSpecs = []string{
	"gen:office/seed=11/rooms=2/density=0.7",
	"gen:lights/seed=3/nx=3/ny=2/collimation=0.05",
	"gen:hall/seed=5/length=12/mirrors=8",
	"gen:adversarial/seed=9/slivers=12/stacks=6/spans=4",
	"gen:grid/seed=2/patches=400",
}

func genPhotons(t *testing.T) int64 {
	t.Helper()
	if testing.Short() {
		return 1200
	}
	return 2500
}

// TestDifferentialEngineConformance is the cross-engine matrix over
// generated scenes: for every family, serial/shared/distributed must agree
// to the bit (stats AND forest fingerprint) at several worker and rank
// counts, and geo must reproduce every trajectory counter. The fixed-scene
// matrix shows the engines agree on four rooms; this shows they agree on a
// scene space.
func TestDifferentialEngineConformance(t *testing.T) {
	photons := genPhotons(t)
	for _, spec := range genConformanceSpecs {
		t.Run(spec, func(t *testing.T) {
			sc, err := SceneByName(spec)
			if err != nil {
				t.Fatal(err)
			}
			refSum1, refStats1 := runSummary(t, sc, Config{
				Photons: photons, Engine: EngineSerial, Sections: 1})
			refSum4, refStats4 := runSummary(t, sc, Config{
				Photons: photons, Engine: EngineSerial, Sections: 4})

			for _, workers := range []int{1, 2, 8} {
				sum, stats := runSummary(t, sc, Config{
					Photons: photons, Engine: EngineShared, Workers: workers, Sections: 1})
				if stats != refStats1 || sum != refSum1 {
					t.Errorf("shared-w%d diverges from serial:\nserial: %+v %+v\nshared: %+v %+v",
						workers, refStats1, refSum1, stats, sum)
				}
			}
			for _, ranks := range []int{1, 2, 4} {
				sum, stats := runSummary(t, sc, Config{
					Photons: photons, Engine: EngineDistributed, Workers: ranks, Sections: 4})
				if stats != refStats4 || sum != refSum4 {
					t.Errorf("distributed-r%d diverges from serial:\nserial: %+v %+v\ndist:   %+v %+v",
						ranks, refStats4, refSum4, stats, sum)
				}
			}
			// Geo: identical trajectories (all counters except the
			// forest-evolution-dependent BinSplits), conserved tallies.
			for _, ranks := range []int{2, 4} {
				sum, stats := runSummary(t, sc, Config{
					Photons: photons, Engine: EngineGeo, Workers: ranks})
				traj, refTraj := stats, refStats1
				traj.BinSplits, refTraj.BinSplits = 0, 0
				if traj != refTraj {
					t.Errorf("geo-r%d trajectories diverge from serial:\n%+v\n%+v", ranks, refTraj, traj)
				}
				if want := stats.PhotonsEmitted + stats.Reflections; sum.Tallies != want {
					t.Errorf("geo-r%d forest holds %d tallies, want %d", ranks, sum.Tallies, want)
				}
			}
		})
	}
}

// TestDifferentialOctreeAgreesWithBrute: on every generated scene — most
// importantly the adversarial family's slivers, coplanar stacks and
// octant-spanning sheets — the octree's ordered traversal must return the
// same answer as the O(n) reference on uniform interior rays, axis-parallel
// rays, and rays originating exactly on patch surfaces.
func TestDifferentialOctreeAgreesWithBrute(t *testing.T) {
	rayCount := 400
	if testing.Short() {
		rayCount = 120
	}
	axes := [6]vecmath.Vec3{
		vecmath.V(1, 0, 0), vecmath.V(-1, 0, 0),
		vecmath.V(0, 1, 0), vecmath.V(0, -1, 0),
		vecmath.V(0, 0, 1), vecmath.V(0, 0, -1),
	}
	for _, spec := range genConformanceSpecs {
		t.Run(spec, func(t *testing.T) {
			sc, err := SceneByName(spec)
			if err != nil {
				t.Fatal(err)
			}
			g := sc.Geom
			b := g.Bounds()
			size := b.Size()
			r := rng.New(31)
			for i := 0; i < rayCount; i++ {
				origin := vecmath.V(
					b.Min.X+size.X*r.Float64(),
					b.Min.Y+size.Y*r.Float64(),
					b.Min.Z+size.Z*r.Float64(),
				)
				checkGenAgainstBrute(t, g, vecmath.Ray{Origin: origin, Dir: sampler.UniformSphere(r)}, "uniform")
				checkGenAgainstBrute(t, g, vecmath.Ray{Origin: origin, Dir: axes[i%6]}, "axis-parallel")
				p := &g.Patches[i%len(g.Patches)]
				onPatch := p.Point(r.Float64(), r.Float64())
				checkGenAgainstBrute(t, g, vecmath.Ray{Origin: onPatch, Dir: sampler.UniformSphere(r)}, "on-patch")
			}
		})
	}
}

// checkGenAgainstBrute mirrors the geom package's property-test oracle:
// found-ness and hit distance must match exactly enough that physics cannot
// diverge; when two patches are hit at identical T (shared edges, and the
// adversarial family's exactly coplanar stacks), either patch is correct.
func checkGenAgainstBrute(t *testing.T, g *geom.Scene, ray vecmath.Ray, label string) {
	t.Helper()
	var ho, hb geom.Hit
	fo := g.Intersect(ray, &ho)
	fb := g.IntersectBrute(ray, &hb)
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

// genCamera frames a generated scene from inside its geometry: eye between
// the bounds center and the min corner, looking at the center.
func genCamera(sc *Scene) Camera {
	b := sc.Geom.Bounds()
	c := b.Center()
	eye := c.Add(b.Min.Sub(c).Scale(0.55))
	return Camera{Eye: eye, LookAt: c, Up: V(0, 0, 1), FovY: 70, Width: 64, Height: 48}
}

// TestDifferentialRenderConformance: the tile renderer's byte-identity
// across worker counts and schedules, over generated scenes. Combined with
// the engine matrix above this closes the pipeline over the scene space:
// same spec + same Config ⇒ same bytes on screen.
func TestDifferentialRenderConformance(t *testing.T) {
	for _, spec := range genConformanceSpecs {
		t.Run(spec, func(t *testing.T) {
			sc, err := SceneByName(spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Run(sc, core.DefaultConfig(genPhotons(t)))
			if err != nil {
				t.Fatal(err)
			}
			cam := genCamera(sc)
			for _, samples := range []int{1, 2} {
				ref := renderPNG(t, sc, res, cam, RenderOptions{Workers: 1, Samples: samples})
				for _, workers := range []int{3, 8} {
					got := renderPNG(t, sc, res, cam, RenderOptions{Workers: workers, Samples: samples})
					if !bytes.Equal(ref, got) {
						t.Errorf("samples=%d workers=%d: render diverges from the serial pixel loop",
							samples, workers)
					}
				}
			}
		})
	}
}

// TestGeneratedSceneDeterminism: the same spec builds the bit-identical
// scene every time through the full public path, and spec parameter order
// is immaterial — the determinism contract the golden corpus and the
// answer-file round trip both stand on.
func TestGeneratedSceneDeterminism(t *testing.T) {
	for _, spec := range genConformanceSpecs {
		a, err := SceneByName(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := SceneByName(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Geom.Patches) != len(b.Geom.Patches) {
			t.Fatalf("%s: patch counts differ between builds", spec)
		}
		for i := range a.Geom.Patches {
			pa, pb := &a.Geom.Patches[i], &b.Geom.Patches[i]
			if pa.Origin != pb.Origin || pa.EdgeS != pb.EdgeS || pa.EdgeT != pb.EdgeT ||
				pa.Emission != pb.Emission || pa.Collimation != pb.Collimation ||
				pa.Material != pb.Material {
				t.Fatalf("%s: patch %d differs between builds", spec, i)
			}
		}
	}
	// Parameter order is immaterial: permuted spec, same canonical scene.
	a, err := SceneByName("gen:office/seed=11/rooms=2/density=0.7")
	if err != nil {
		t.Fatal(err)
	}
	b, err := SceneByName("gen:office/density=0.7/seed=11/rooms=2")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != b.Name {
		t.Fatalf("permuted spec canonicalized differently: %q vs %q", a.Name, b.Name)
	}
}

// TestGeneratedAnswerRoundTrip: simulate a generated scene, save the
// answer, reload it, and rebuild the geometry from the stored canonical
// spec — including a sectioned (distributed-engine) answer, whose forest
// holds Sections² trees per polygon: Scene() must compare patch counts,
// not tree counts.
func TestGeneratedAnswerRoundTrip(t *testing.T) {
	const spec = "gen:office/seed=11/rooms=2/density=0.7"
	sc, err := SceneByName(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Photons: 1500, Engine: EngineSerial},
		{Photons: 1500, Engine: EngineDistributed, Workers: 2, Sections: 4},
	} {
		sol, err := Simulate(sc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "gen.pbf")
		if err := sol.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.SceneName() != spec {
			t.Fatalf("%v: loaded scene name %q, want %q", cfg.Engine, loaded.SceneName(), spec)
		}
		rebuilt, err := loaded.Scene()
		if err != nil {
			t.Fatalf("%v: rebuilding generated scene from answer: %v", cfg.Engine, err)
		}
		if rebuilt.DefiningPolygons() != sc.DefiningPolygons() {
			t.Fatalf("%v: rebuilt scene has %d polygons, want %d",
				cfg.Engine, rebuilt.DefiningPolygons(), sc.DefiningPolygons())
		}
		if got, want := loaded.Summary(), sol.Summary(); got != want {
			t.Fatalf("%v: answer changed across save/load:\n%+v\n%+v", cfg.Engine, want, got)
		}
	}
}

// --- Golden fingerprint corpus -------------------------------------------

// goldenEntry pins one canonical generated scene: the geometry fingerprint
// (generator drift detector) and the serial forest summary at a fixed
// photon count (light-transport drift detector). Hex strings keep the
// uint64s JSON-safe.
type goldenEntry struct {
	Spec        string `json:"spec"`
	Photons     int64  `json:"photons"`
	Patches     int    `json:"patches"`
	GeomFP      string `json:"geom_fingerprint"`
	ForestFP    string `json:"forest_fingerprint"`
	Leaves      int    `json:"leaves"`
	Tallies     int64  `json:"tallies"`
	Reflections int64  `json:"reflections"`
}

// goldenSpecs are the ~8 canonical scenes the corpus pins (fixed photon
// count, independent of -short: the golden file must mean the same thing
// in every test mode).
var goldenSpecs = []string{
	"gen:office/seed=42/rooms=2/density=0.7",
	"gen:office/seed=1/rooms=3/density=0.2",
	"gen:lights/seed=3/nx=3/ny=2/collimation=0.05",
	"gen:lights/seed=8/nx=2/ny=2/collimation=1",
	"gen:hall/seed=5/length=12/mirrors=8",
	"gen:hall/seed=21/length=24/mirrors=16",
	"gen:adversarial/seed=9/slivers=12/stacks=6/spans=4",
	"gen:grid/seed=2/patches=500",
}

const goldenPath = "testdata/scenegen_golden.json"
const goldenPhotons = 2000

func computeGolden(t *testing.T, specStr string) goldenEntry {
	t.Helper()
	spec, err := scenegen.Parse(specStr)
	if err != nil {
		t.Fatal(err)
	}
	built, err := scenegen.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := SceneByName(specStr)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Simulate(sc, Config{Photons: goldenPhotons, Engine: EngineSerial})
	if err != nil {
		t.Fatal(err)
	}
	sum := sol.Summary()
	return goldenEntry{
		Spec:        specStr,
		Photons:     goldenPhotons,
		Patches:     sc.DefiningPolygons(),
		GeomFP:      fmt.Sprintf("%016x", built.Fingerprint()),
		ForestFP:    fmt.Sprintf("%016x", sum.Fingerprint),
		Leaves:      sum.Leaves,
		Tallies:     sum.Tallies,
		Reflections: sol.Stats().Reflections,
	}
}

// TestSceneGenGoldenCorpus compares every canonical scene against the
// committed corpus — the cross-machine, cross-version drift alarm for both
// the generator and the physics. On intended changes regenerate with
//
//	go test -run TestSceneGenGoldenCorpus -update .
//
// and commit the diff; the diff itself documents whether geometry, light
// transport, or both moved.
func TestSceneGenGoldenCorpus(t *testing.T) {
	if *updateGolden {
		entries := make([]goldenEntry, 0, len(goldenSpecs))
		for _, spec := range goldenSpecs {
			entries = append(entries, computeGolden(t, spec))
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden entries to %s", len(entries), goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden corpus (regenerate with -update): %v", err)
	}
	var entries []goldenEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]goldenEntry, len(entries))
	for _, e := range entries {
		byName[e.Spec] = e
	}
	for _, spec := range goldenSpecs {
		want, ok := byName[spec]
		if !ok {
			t.Errorf("golden corpus missing %q (regenerate with -update)", spec)
			continue
		}
		got := computeGolden(t, spec)
		if got != want {
			t.Errorf("%s drifted from golden corpus:\nwant %+v\ngot  %+v", spec, want, got)
		}
	}
	if len(entries) != len(goldenSpecs) {
		t.Errorf("golden corpus has %d entries, harness pins %d (regenerate with -update)",
			len(entries), len(goldenSpecs))
	}
}
