package photon

// The entry points into each message-passing engine must derive one
// configuration from one request. Each engine applies its defaults once,
// where it plans (dist's planReplicated and planGeo), so a caller that sets
// no BatchSize or Sections gets the same run whichever layer it enters
// through. A default that drifts between layers fails here.

import (
	"fmt"
	"net"
	"testing"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/scenes"
)

// runJob runs job as a coordinator plus in-process workers over loopback
// TCP: the path photon-coord and photon-worker take, minus the processes.
func runJob(t *testing.T, job coord.JobSpec) *dist.Result {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	workerErrs := make(chan error, job.Ranks-1)
	for i := 0; i < job.Ranks-1; i++ {
		go func() {
			workerErrs <- coord.RunWorker(ln.Addr().String(), coord.WorkerOptions{FailAfterRound: -1, Logf: t.Logf})
		}()
	}
	res, err := coord.RunCoordinator(ln, job, coord.CoordOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < job.Ranks-1; i++ {
		if err := <-workerErrs; err != nil {
			t.Errorf("worker: %v", err)
		}
	}
	return res
}

// TestEntryPointsAgree runs every bundled scene through three entry points
// of each message-passing engine and requires equal Stats,
// Forest.Fingerprint() and traffic:
//   - dist directly at dist.DefaultConfig, the path the benchmark's TCP
//     run takes;
//   - the engine package at an engine.Config that sets only Core and
//     Workers;
//   - a coord job whose BatchSize and Sections are zero.
//
// It also pins the sectioning those defaults give: 4×4 sections for the
// replicated engine, one tree per polygon for geo.
func TestEntryPointsAgree(t *testing.T) {
	const photons, ranks = 3000, 2
	for _, e := range []struct {
		job   string
		eng   engine.Engine
		run   func(*scenes.Scene, dist.Config) (*dist.Result, error)
		cells int
	}{
		{"replicated", engine.Distributed, dist.Run, 4},
		{"geo", engine.Geo, dist.GeoRun, 1},
	} {
		for _, name := range SceneNames() {
			t.Run(fmt.Sprintf("%s/%s", e.job, name), func(t *testing.T) {
				sc, err := SceneByName(name)
				if err != nil {
					t.Fatal(err)
				}
				direct, err := e.run(sc, dist.DefaultConfig(photons, ranks))
				if err != nil {
					t.Fatalf("dist: %v", err)
				}
				if got := direct.Forest.Cells(); got != e.cells {
					t.Errorf("default sectioning %d, want %d", got, e.cells)
				}
				viaEngine, err := e.eng.Run(sc, engine.Config{Core: core.DefaultConfig(photons), Workers: ranks})
				if err != nil {
					t.Fatalf("engine: %v", err)
				}
				viaJob := runJob(t, coord.JobSpec{Scene: name, Engine: e.job, Photons: photons, Seed: 1, Ranks: ranks})
				for _, got := range []struct {
					path string
					res  *dist.Result
				}{{"engine." + e.eng.Name(), viaEngine.Dist}, {"coord job", viaJob}} {
					if got.res.Stats != direct.Stats {
						t.Errorf("%s: stats diverge from dist.DefaultConfig:\n%s: %+v\ndist: %+v",
							got.path, got.path, got.res.Stats, direct.Stats)
					}
					if g, w := got.res.Forest.Fingerprint(), direct.Forest.Fingerprint(); g != w {
						t.Errorf("%s: forest fingerprint %x, dist.DefaultConfig gives %x", got.path, g, w)
					}
					// The replicated forest is the same at every batch size;
					// the traffic is what shows a drifted BatchSize.
					if g, w := got.res.Traffic, direct.Traffic; g.Messages != w.Messages || g.Bytes != w.Bytes {
						t.Errorf("%s: traffic %d msgs / %d B, dist.DefaultConfig gives %d msgs / %d B",
							got.path, g.Messages, g.Bytes, w.Messages, w.Bytes)
					}
				}
			})
		}
	}
}
