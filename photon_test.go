package photon

import (
	"bytes"
	"math"
	"testing"
)

func TestSceneByName(t *testing.T) {
	for _, name := range SceneNames() {
		if _, err := SceneByName(name); err != nil {
			t.Errorf("SceneByName(%q): %v", name, err)
		}
	}
	if _, err := SceneByName("bogus"); err == nil {
		t.Error("unknown scene accepted")
	}
}

func TestSimulateValidation(t *testing.T) {
	sc, err := SceneByName("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(sc, Config{}); err == nil {
		t.Error("zero photons accepted")
	}
	if _, err := Simulate(sc, Config{Photons: 10, Engine: Engine(99)}); err == nil {
		t.Error("unknown engine accepted")
	}
}

func TestAllEnginesAgreeStatistically(t *testing.T) {
	sc, err := SceneByName("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	var paths []float64
	for _, e := range []Engine{EngineSerial, EngineShared, EngineDistributed, EngineGeo} {
		sol, err := Simulate(sc, Config{Photons: 30000, Engine: e, Workers: 4})
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		st := sol.Stats()
		if st.PhotonsEmitted != 30000 {
			t.Fatalf("%v emitted %d", e, st.PhotonsEmitted)
		}
		paths = append(paths, st.MeanPathLength())
	}
	for i := 1; i < len(paths); i++ {
		if math.Abs(paths[i]-paths[0]) > 0.06*paths[0] {
			t.Fatalf("engines disagree on mean path length: %v", paths)
		}
	}
}

func TestEndToEndSimulateSaveLoadRender(t *testing.T) {
	sc, err := SceneByName("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Simulate(sc, Config{Photons: 40000})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sol.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.SceneName() != "quickstart" || loaded.EmittedPhotons() != 40000 {
		t.Fatalf("loaded meta: %q %d", loaded.SceneName(), loaded.EmittedPhotons())
	}
	sc2, err := loaded.Scene()
	if err != nil {
		t.Fatal(err)
	}
	img, err := Render(sc2, loaded, Camera{
		Eye: V(2, 0.3, 1.5), LookAt: V(2, 4, 1.2), Up: V(0, 0, 1),
		FovY: 70, Width: 40, Height: 30,
	}, RenderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 40 {
		t.Fatalf("bounds %v", img.Bounds())
	}
	var png bytes.Buffer
	if err := WritePNG(&png, img); err != nil {
		t.Fatal(err)
	}
	if png.Len() == 0 {
		t.Fatal("empty PNG")
	}
}

func TestRadianceQuery(t *testing.T) {
	sc, err := SceneByName("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Simulate(sc, Config{Photons: 60000})
	if err != nil {
		t.Fatal(err)
	}
	// Floor straight-up radiance is positive in a lit room.
	rad, err := sol.Radiance(sc, 0, 0.5, 0.5, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rad.Luminance() <= 0 {
		t.Fatalf("floor radiance %v", rad)
	}
	if _, err := sol.Radiance(sc, 9999, 0.5, 0.5, 0.1, 1); err == nil {
		t.Error("out-of-range patch accepted")
	}
}

func TestSolutionIntrospection(t *testing.T) {
	sc, _ := SceneByName("quickstart")
	sol, err := Simulate(sc, Config{Photons: 20000, SplitSigma: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Leaves() < len(sc.Geom.Patches) {
		t.Errorf("leaves %d below patch count", sol.Leaves())
	}
	if sol.MemoryBytes() <= 0 {
		t.Error("memory estimate not positive")
	}
}

func TestDistributedBalanceThreading(t *testing.T) {
	sc, err := SceneByName("quickstart")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Balance{BalanceBinPack, BalanceNaive} {
		sol, err := Simulate(sc, Config{
			Photons: 12000, Engine: EngineDistributed, Workers: 4, Balance: b,
		})
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		if sol.Stats().PhotonsEmitted != 12000 {
			t.Fatalf("%v emitted %d", b, sol.Stats().PhotonsEmitted)
		}
	}
	// An out-of-range strategy must reach the dist engine's validation —
	// this is what proves Config.Balance is actually forwarded.
	if _, err := Simulate(sc, Config{
		Photons: 100, Engine: EngineDistributed, Workers: 2, Balance: Balance(99),
	}); err == nil {
		t.Error("invalid Balance accepted; Config.Balance not threaded through Simulate")
	}
}

func TestEngineString(t *testing.T) {
	for e, want := range map[Engine]string{
		EngineSerial: "serial", EngineShared: "shared", EngineDistributed: "distributed",
		EngineGeo: "geo", Engine(42): "unknown",
	} {
		if e.String() != want {
			t.Errorf("Engine(%d) = %q", e, e.String())
		}
	}
}
