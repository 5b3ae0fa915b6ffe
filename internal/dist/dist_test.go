package dist

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/scenes"
)

// conserved asserts the wire invariant: every tally produced anywhere was
// applied by exactly one owner — the assembled forest's photon total equals
// emissions plus surviving reflections, exactly.
func conserved(t *testing.T, res *Result) {
	t.Helper()
	want := res.Stats.PhotonsEmitted + res.Stats.Reflections
	if got := res.Forest.TotalPhotons(); got != want {
		t.Fatalf("forest holds %d tallies, stats say %d emitted + %d reflected = %d",
			got, res.Stats.PhotonsEmitted, res.Stats.Reflections, want)
	}
	var applied int64
	for _, rs := range res.PerRank {
		applied += rs.TalliesApplied
	}
	if applied != want {
		t.Fatalf("ranks applied %d tallies, want %d", applied, want)
	}
}

func TestRunParityWithSerial(t *testing.T) {
	sc, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	const photons = 30000
	serial, err := core.Run(sc, core.DefaultConfig(photons))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, DefaultConfig(photons, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PhotonsEmitted != photons {
		t.Fatalf("emitted %d, want %d", res.Stats.PhotonsEmitted, photons)
	}
	conserved(t, res)

	sp, dp := serial.Stats.MeanPathLength(), res.Stats.MeanPathLength()
	if math.Abs(dp-sp) > 0.05*sp {
		t.Errorf("mean path length disagrees: serial %v, dist %v", sp, dp)
	}
	st, dt := float64(serial.Forest.TotalPhotons()), float64(res.Forest.TotalPhotons())
	if math.Abs(dt-st) > 0.05*st {
		t.Errorf("forest tallies disagree: serial %v, dist %v", st, dt)
	}
}

func TestRunDeterministic(t *testing.T) {
	sc, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(20000, 4)
	a, err := Run(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Forest.TotalPhotons() != b.Forest.TotalPhotons() ||
		a.Forest.TotalLeaves() != b.Forest.TotalLeaves() {
		t.Fatalf("same seed, different forests: %d/%d tallies, %d/%d leaves",
			a.Forest.TotalPhotons(), b.Forest.TotalPhotons(),
			a.Forest.TotalLeaves(), b.Forest.TotalLeaves())
	}
	for r := range a.PerRank {
		if a.PerRank[r] != b.PerRank[r] {
			t.Fatalf("rank %d stats differ: %+v vs %+v", r, a.PerRank[r], b.PerRank[r])
		}
	}
}

func TestRunRankCountInvariance(t *testing.T) {
	sc, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	const photons = 24000
	var stats []core.Stats
	var prints []uint64
	for _, ranks := range []int{1, 2, 4, 8} {
		res, err := Run(sc, DefaultConfig(photons, ranks))
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if res.Stats.PhotonsEmitted != photons {
			t.Fatalf("ranks=%d emitted %d", ranks, res.Stats.PhotonsEmitted)
		}
		conserved(t, res)
		if len(res.PerRank) != ranks {
			t.Fatalf("ranks=%d: %d PerRank entries", ranks, len(res.PerRank))
		}
		stats = append(stats, res.Stats)
		prints = append(prints, res.Forest.Fingerprint())
	}
	// Per-photon substreams + photon-order application: the answer is
	// EXACTLY rank-count invariant, stats and forest bits included.
	for i := 1; i < len(stats); i++ {
		if stats[i] != stats[0] {
			t.Errorf("stats vary with rank count:\n%+v\n%+v", stats[0], stats[i])
		}
		if prints[i] != prints[0] {
			t.Errorf("forest varies with rank count: %x vs %x", prints[0], prints[i])
		}
	}
}

// TestBinPackBeatsNaive is the Table 5.2 shape: Best-Fit bin packing
// yields a lower per-rank max/min applied-tally ratio than naive
// contiguous assignment on the Harpsichord Room.
func TestBinPackBeatsNaive(t *testing.T) {
	sc, err := scenes.HarpsichordRoom()
	if err != nil {
		t.Fatal(err)
	}
	maxMin := func(b Balance) float64 {
		cfg := DefaultConfig(60000, 8)
		cfg.Balance = b
		res, err := Run(sc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := res.PerRank[0].TalliesApplied, res.PerRank[0].TalliesApplied
		for _, rs := range res.PerRank {
			if rs.TalliesApplied < lo {
				lo = rs.TalliesApplied
			}
			if rs.TalliesApplied > hi {
				hi = rs.TalliesApplied
			}
		}
		if lo == 0 {
			return float64(hi)
		}
		return float64(hi) / float64(lo)
	}
	naive := maxMin(BalanceNaive)
	packed := maxMin(BalanceBinPack)
	if packed >= naive {
		t.Fatalf("bin packing max/min %.3f not below naive %.3f", packed, naive)
	}
	if packed > 1.6 {
		t.Errorf("bin-packed max/min %.3f too imbalanced (paper: 1.04)", packed)
	}
}

func TestRunBatchSizeChangesTrafficNotPhysics(t *testing.T) {
	sc, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	run := func(batch int) *Result {
		cfg := DefaultConfig(16000, 4)
		cfg.BatchSize = batch
		res, err := Run(sc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	small, big := run(100), run(2000)
	if small.Traffic.Messages <= big.Traffic.Messages {
		t.Errorf("smaller batches should send more messages: %d vs %d",
			small.Traffic.Messages, big.Traffic.Messages)
	}
	sp, bp := small.Stats.MeanPathLength(), big.Stats.MeanPathLength()
	if math.Abs(sp-bp) > 1e-12 {
		t.Errorf("batch size changed the physics: %v vs %v", sp, bp)
	}
}

func TestConfigValidation(t *testing.T) {
	sc, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(sc, Config{Core: core.DefaultConfig(1000), Ranks: 0}); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := Run(sc, Config{Core: core.Config{}, Ranks: 4}); err == nil {
		t.Error("zero photons accepted")
	}
	if _, err := GeoRun(sc, Config{Core: core.DefaultConfig(1000), Ranks: -1}); err == nil {
		t.Error("negative ranks accepted by GeoRun")
	}
	// Geo owns whole polygons: a sectioning request is refused, not
	// silently run unsectioned.
	geo := DefaultConfig(4000, 2)
	geo.Core.Sections = 4
	if _, err := GeoRun(sc, geo); err == nil {
		t.Error("sectioned forest accepted by GeoRun")
	}
}

// TestNegativeKnobsRejected: only zero means "engine default". A negative
// BatchSize or Core.Sections is an error from both engines, never a silent
// run at the default.
func TestNegativeKnobsRejected(t *testing.T) {
	sc, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []struct {
		name string
		run  func(*scenes.Scene, Config) (*Result, error)
	}{{"Run", Run}, {"GeoRun", GeoRun}} {
		name, run := e.name, e.run
		batch := DefaultConfig(1000, 2)
		batch.BatchSize = -5
		if _, err := run(sc, batch); err == nil {
			t.Errorf("%s accepted BatchSize -5", name)
		}
		sections := DefaultConfig(1000, 2)
		sections.Core.Sections = -1
		if _, err := run(sc, sections); err == nil {
			t.Errorf("%s accepted Core.Sections -1", name)
		}
	}
}

func TestBalanceString(t *testing.T) {
	for b, want := range map[Balance]string{
		BalanceBinPack: "bin-pack", BalanceNaive: "naive", Balance(9): "unknown",
	} {
		if b.String() != want {
			t.Errorf("Balance(%d).String() = %q, want %q", b, b.String(), want)
		}
	}
}
