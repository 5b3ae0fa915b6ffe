package core

import (
	"math"
	"testing"

	"repro/internal/bintree"
	"repro/internal/rng"
	"repro/internal/scenes"
)

func quickScene(t testing.TB) *scenes.Scene {
	t.Helper()
	s, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunValidatesConfig(t *testing.T) {
	s := quickScene(t)
	if _, err := Run(s, Config{Photons: 0}); err == nil {
		t.Fatal("zero photons accepted")
	}
	if _, err := Run(s, Config{Photons: -5}); err == nil {
		t.Fatal("negative photons accepted")
	}
}

func TestRunEmitsExactCount(t *testing.T) {
	s := quickScene(t)
	res, err := Run(s, DefaultConfig(5000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PhotonsEmitted != 5000 || res.EmittedPhotons != 5000 {
		t.Fatalf("emitted %d, want 5000", res.Stats.PhotonsEmitted)
	}
}

func TestEveryPhotonTerminates(t *testing.T) {
	s := quickScene(t)
	res, err := Run(s, DefaultConfig(20000))
	if err != nil {
		t.Fatal(err)
	}
	ended := res.Stats.Absorptions + res.Stats.Escapes
	if ended != res.Stats.PhotonsEmitted {
		t.Fatalf("emitted %d but only %d terminated", res.Stats.PhotonsEmitted, ended)
	}
}

func TestClosedRoomNoEscapes(t *testing.T) {
	s := quickScene(t)
	res, err := Run(s, DefaultConfig(20000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Escapes != 0 {
		t.Fatalf("%d photons escaped a closed room", res.Stats.Escapes)
	}
}

func TestForestReceivesEmissionPlusReflections(t *testing.T) {
	s := quickScene(t)
	res, err := Run(s, DefaultConfig(20000))
	if err != nil {
		t.Fatal(err)
	}
	want := res.Stats.PhotonsEmitted + res.Stats.Reflections
	if got := res.Forest.TotalPhotons(); got != want {
		t.Fatalf("forest tallies %d, want emissions+reflections = %d", got, want)
	}
}

func TestMeanPathLengthMatchesAlbedo(t *testing.T) {
	// In a closed room with uniform scalar albedo rho, the expected number
	// of surface interactions per photon is 1/(1-rho) (geometric series).
	// Quickstart uses 0.7 white walls and a 0.4 gray floor; the mean must
	// land between the two bounds.
	s := quickScene(t)
	res, err := Run(s, DefaultConfig(50000))
	if err != nil {
		t.Fatal(err)
	}
	mean := res.Stats.MeanPathLength()
	loBound := 1 / (1 - 0.4) // all-gray room
	hiBound := 1 / (1 - 0.7) // all-white room
	if mean < loBound || mean > hiBound {
		t.Fatalf("mean path length %v outside [%v, %v]", mean, loBound, hiBound)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	s := quickScene(t)
	cfg := DefaultConfig(5000)
	a, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats {
		t.Fatalf("same seed, different stats:\n%+v\n%+v", a.Stats, b.Stats)
	}
	if a.Forest.TotalLeaves() != b.Forest.TotalLeaves() {
		t.Fatal("same seed, different forests")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	s := quickScene(t)
	cfg := DefaultConfig(5000)
	a, _ := Run(s, cfg)
	cfg.Seed = 2
	b, _ := Run(s, cfg)
	if a.Stats == b.Stats {
		t.Fatal("different seeds produced identical stats")
	}
}

func TestEnergyConservation(t *testing.T) {
	// Total power tallied at emission equals scene power; power deposited
	// across all bins is emission + sum over bounces, each attenuated by
	// albedo — so total forest power must be strictly greater than emission
	// power (bounces add tallies) but bounded by emission/(1-maxAlbedo).
	s := quickScene(t)
	res, err := Run(s, DefaultConfig(30000))
	if err != nil {
		t.Fatal(err)
	}
	var total bintree.RGB
	for i := 0; i < res.Forest.NumTrees(); i++ {
		res.Forest.Tree(i).Walk(func(n *bintree.Node) {
			if n.IsLeaf() {
				total = total.Add(n.Power())
			}
		})
	}
	scenePower := s.Geom.TotalEmissionPower()
	lum := 0.2126*total.R + 0.7152*total.G + 0.0722*total.B
	if lum < scenePower {
		t.Fatalf("forest luminance %v below emitted %v", lum, scenePower)
	}
	if lum > scenePower/(1-0.7)*1.05 {
		t.Fatalf("forest luminance %v exceeds the geometric-series bound", lum)
	}
}

func TestRadianceUniformRoomOrderOfMagnitude(t *testing.T) {
	// For a closed room, average radiance ~ Phi * rho / ((1-rho) * A * pi)
	// by the radiosity series; check the simulated ceiling-facing floor
	// radiance is within 3x of the analytic ballpark.
	s := quickScene(t)
	res, err := Run(s, DefaultConfig(200000))
	if err != nil {
		t.Fatal(err)
	}
	// Probe the middle of the first wall patch (floor), straight-up
	// direction (r2 = 0).
	floorArea := s.Geom.Patches[0].Area()
	got := res.Forest.Radiance(0, bintree.Point{S: 0.5, T: 0.5, R2: 0.05, Theta: 1}, floorArea)
	phi := s.Geom.TotalEmissionPower()
	area := s.Geom.TotalArea()
	rho := 0.55 // between floor gray and wall white
	want := phi * rho / ((1 - rho) * area * math.Pi)
	lum := 0.2126*got.R + 0.7152*got.G + 0.0722*got.B
	if lum < want/3 || lum > want*3 {
		t.Fatalf("floor radiance %v, analytic ballpark %v", lum, want)
	}
}

func TestTracePhotonFuncRoutesAllTallies(t *testing.T) {
	// The functional tracer must deliver exactly emissions + reflections
	// tallies with valid patch indices.
	s := quickScene(t)
	sim, err := NewSimulator(s, DefaultConfig(1000))
	if err != nil {
		t.Fatal(err)
	}
	stream := rng.New(3)
	var stats Stats
	count := 0
	for i := 0; i < 1000; i++ {
		sim.TracePhotonFunc(stream, &stats, func(ta Tally) {
			count++
			if int(ta.Patch) < 0 || int(ta.Patch) >= len(s.Geom.Patches) {
				t.Fatalf("tally for invalid patch %d", ta.Patch)
			}
			if ta.Power.R < 0 || ta.Power.G < 0 || ta.Power.B < 0 {
				t.Fatalf("negative tally power %+v", ta.Power)
			}
		})
	}
	if int64(count) != stats.PhotonsEmitted+stats.Reflections {
		t.Fatalf("delivered %d tallies, want %d", count, stats.PhotonsEmitted+stats.Reflections)
	}
}

func TestMirrorSceneTalliesOnMirror(t *testing.T) {
	// In the Cornell Box, the floating mirror must accumulate reflections
	// with angular structure.
	s, err := scenes.CornellBox()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, DefaultConfig(150000))
	if err != nil {
		t.Fatal(err)
	}
	mirrorIdx := -1
	for i := range s.Geom.Patches {
		if s.Material(i).Kind.String() == "mirror" {
			mirrorIdx = i
			break
		}
	}
	if mirrorIdx < 0 {
		t.Fatal("no mirror patch")
	}
	tree := res.Forest.Tree(mirrorIdx)
	if tree.Total() == 0 {
		t.Fatal("mirror received no photons")
	}
}

func TestBounceCapTerminatesPathologicalPaths(t *testing.T) {
	s := quickScene(t)
	cfg := DefaultConfig(2000)
	cfg.MaxBounces = 2
	res, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalPathLength > 2*res.Stats.PhotonsEmitted {
		t.Fatalf("path length %d exceeds cap*photons", res.Stats.TotalPathLength)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{PhotonsEmitted: 1, Reflections: 2, Absorptions: 3, Escapes: 4, BinSplits: 5, TotalPathLength: 6}
	b := a
	a.Add(b)
	if a.PhotonsEmitted != 2 || a.Reflections != 4 || a.TotalPathLength != 12 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func BenchmarkTracePhotonQuickstart(b *testing.B) {
	s, err := scenes.Quickstart()
	if err != nil {
		b.Fatal(err)
	}
	sim, err := NewSimulator(s, DefaultConfig(int64(b.N)+1))
	if err != nil {
		b.Fatal(err)
	}
	forest := bintree.NewForest(len(s.Geom.Patches), bintree.DefaultConfig())
	stream := rng.New(1)
	var stats Stats
	deliver := func(t Tally) { forest.Add(int(t.Patch), t.Point, t.Power) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.TracePhotonFunc(stream, &stats, deliver)
	}
}

func BenchmarkTracePhotonCornell(b *testing.B) {
	s, err := scenes.CornellBox()
	if err != nil {
		b.Fatal(err)
	}
	sim, err := NewSimulator(s, DefaultConfig(int64(b.N)+1))
	if err != nil {
		b.Fatal(err)
	}
	forest := bintree.NewForest(len(s.Geom.Patches), bintree.DefaultConfig())
	stream := rng.New(1)
	var stats Stats
	deliver := func(t Tally) { forest.Add(int(t.Patch), t.Point, t.Power) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.TracePhotonFunc(stream, &stats, deliver)
	}
}
