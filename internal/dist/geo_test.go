package dist

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/scenes"
)

func TestGeoRunParityWithSerial(t *testing.T) {
	sc, err := scenes.CornellBox()
	if err != nil {
		t.Fatal(err)
	}
	const photons = 30000
	serial, err := core.Run(sc, core.DefaultConfig(photons))
	if err != nil {
		t.Fatal(err)
	}
	res, err := GeoRun(sc, DefaultConfig(photons, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PhotonsEmitted != photons {
		t.Fatalf("emitted %d, want %d", res.Stats.PhotonsEmitted, photons)
	}
	conserved(t, res)

	sp, gp := serial.Stats.MeanPathLength(), res.Stats.MeanPathLength()
	if math.Abs(gp-sp) > 0.06*sp {
		t.Errorf("mean path length disagrees: serial %v, geo %v", sp, gp)
	}
	st, gt := float64(serial.Forest.TotalPhotons()), float64(res.Forest.TotalPhotons())
	if math.Abs(gt-st) > 0.06*st {
		t.Errorf("forest tallies disagree: serial %v, geo %v", st, gt)
	}
}

func TestGeoRunForwardsFlights(t *testing.T) {
	sc, err := scenes.CornellBox()
	if err != nil {
		t.Fatal(err)
	}
	res, err := GeoRun(sc, DefaultConfig(20000, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Forwards == 0 {
		t.Fatal("no photon flights forwarded between space owners")
	}
	if res.Traffic.Messages == 0 {
		t.Fatal("no messages recorded")
	}
	if res.Balance != nil {
		t.Error("geo engine should not report a load-balance assignment")
	}
	if len(res.Owners) != len(sc.Geom.Patches) {
		t.Errorf("Owners covers %d units, want one per polygon (%d)",
			len(res.Owners), len(sc.Geom.Patches))
	}
}

func TestGeoRunDeterministic(t *testing.T) {
	sc, err := scenes.CornellBox()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(15000, 4)
	a, err := GeoRun(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GeoRun(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Forwards != b.Forwards ||
		a.Forest.TotalPhotons() != b.Forest.TotalPhotons() ||
		a.Forest.TotalLeaves() != b.Forest.TotalLeaves() {
		t.Fatalf("same seed, different runs: forwards %d/%d, tallies %d/%d, leaves %d/%d",
			a.Forwards, b.Forwards,
			a.Forest.TotalPhotons(), b.Forest.TotalPhotons(),
			a.Forest.TotalLeaves(), b.Forest.TotalLeaves())
	}
}

// TestGeoRunSingleRank degenerates to no forwarding: one rank owns all
// regions, so every flight stays home.
func TestGeoRunSingleRank(t *testing.T) {
	sc, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	res, err := GeoRun(sc, DefaultConfig(8000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Forwards != 0 {
		t.Errorf("single rank forwarded %d flights", res.Forwards)
	}
	conserved(t, res)
}
