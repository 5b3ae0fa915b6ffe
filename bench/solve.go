package main

// Stage one: the engine matrix. Six configurations solve the same scene
// with the same photons, interleaved repetition by repetition so that a
// slow stretch of the host lands on all of them alike, each through
// engine.Engine.Run at engine defaults and a width of two — except the
// loopback-TCP configuration, which has no engine adapter and is driven the
// way photon-worker drives it: one dist.RunRank per rank over an
// mpi.TCPComm mesh.

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/scenes"
)

// solveSeed is the simulation seed of every matrix run: core's default, not
// the workload seed. The replicated-distributed engine's bin packing puts
// the heavy half of the forest on rank 0 or on rank 1 depending on the seed
// (and, below some 25 000 photons, always on rank 1), and on the 10k-patch
// grid that decides whether the final gather moves 2 MB or 30 MB — free in
// process, but a factor 2.8 on the TCP run's photons/s (at 30 000 photons,
// seeds 11–20 split six to four). A metric that flips with the seed cannot
// gate anything, so the matrix solves the same photons in every run — with
// this seed and solve-grid's 30 000 photons, the 2 MB side — and the
// workload seed still draws every scene, camera and arrival.
const solveSeed = 1

// width is the parallel width of every configuration that has one:
// workers, ranks, connections. It is this host's nproc.
const width = 2

// solveConfig is one column of the matrix.
type solveConfig struct {
	name string
	run  func(sc *scenes.Scene, cc core.Config, o *obs.Run) (*engine.Solution, error)
}

func viaEngine(e engine.Engine, workers int) func(*scenes.Scene, core.Config, *obs.Run) (*engine.Solution, error) {
	return func(sc *scenes.Scene, cc core.Config, o *obs.Run) (*engine.Solution, error) {
		return e.Run(sc, engine.Config{Core: cc, Workers: workers, Obs: o})
	}
}

// The matrix, in the order each repetition runs it.
const (
	cfgSerial = iota
	cfgSharedW1
	cfgShared
	cfgDist
	cfgDistTCP
	cfgGeo
	numSolveConfigs
)

var solveConfigs = [numSolveConfigs]solveConfig{
	cfgSerial:   {"serial", viaEngine(engine.Serial, 1)},
	cfgSharedW1: {"shared-w1", viaEngine(engine.Shared, 1)},
	cfgShared:   {"shared", viaEngine(engine.Shared, width)},
	cfgDist:     {"distributed", viaEngine(engine.Distributed, width)},
	cfgDistTCP:  {"distributed-tcp", runDistTCP},
	cfgGeo:      {"geo", viaEngine(engine.Geo, width)},
}

// runDistTCP runs the replicated-distributed engine as width ranks joined
// by a loopback TCP mesh, with the configuration engine.Distributed builds
// at defaults. The timed region includes building the mesh: a job over TCP
// pays for it.
func runDistTCP(sc *scenes.Scene, cc core.Config, o *obs.Run) (*engine.Solution, error) {
	dcfg := dist.DefaultConfig(cc.Photons, width)
	dcfg.Core = cc
	dcfg.Obs = o

	lns := make([]net.Listener, width)
	addrs := make([]string, width)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, open := range lns[:r] {
				open.Close()
			}
			return nil, fmt.Errorf("bench: rank %d listen: %w", r, err)
		}
		lns[r], addrs[r] = ln, ln.Addr().String()
	}

	comms := make([]*mpi.TCPComm, width)
	results := make([]*dist.Result, width)
	errs := make([]error, width)
	var wg sync.WaitGroup
	for r := 0; r < width; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := mpi.NewTCPCommWithListener(r, addrs, lns[r])
			if err != nil {
				errs[r] = err
				return
			}
			comms[r] = c
			results[r], errs[r] = dist.RunRank(c, sc, dcfg, dist.RankOptions{})
		}(r)
	}
	wg.Wait()
	// Meshes close only after every rank has returned: a rank that hung up
	// early would EOF a peer still reading.
	for _, c := range comms {
		if c != nil {
			c.Close()
		}
	}
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("bench: tcp rank %d: %w", r, err)
		}
	}
	return &engine.Solution{Result: results[0].Result, Dist: results[0]}, nil
}

// solveRep is one repetition of the matrix: every configuration once.
type solveRep struct {
	Seconds [numSolveConfigs]float64
	Sols    [numSolveConfigs]*engine.Solution
	Obs     [numSolveConfigs]obs.Report
}

// runMatrix runs every configuration once on sc. In a traced run each call
// is a span and carries an obs.Run, whose report is the only view inside an
// engine this benchmark takes.
func runMatrix(tr *tracer, parent int, sc *scenes.Scene, photons int64) (solveRep, error) {
	var rep solveRep
	cc := core.DefaultConfig(photons)
	cc.Seed = solveSeed
	for i, cfg := range solveConfigs {
		var o *obs.Run
		if tr != nil {
			o = obs.NewRun()
		}
		id := tr.start("engine.run."+cfg.name, parent)
		start := time.Now()
		sol, err := cfg.run(sc, cc, o)
		rep.Seconds[i] = time.Since(start).Seconds()
		tr.end(id)
		if err != nil {
			return rep, fmt.Errorf("%s: %w", cfg.name, err)
		}
		rep.Sols[i] = sol
		rep.Obs[i] = o.Report()
	}
	return rep, nil
}

// checkMatrix is the stage-one correctness gate for one repetition. Every
// configuration must report the same trajectory statistics; bin splits
// depend on how the forest is sectioned, so they are compared within each
// sectioning class. Forest fingerprints must agree between the serial and
// shared engines (same sectioning, photon-order application) and between
// the in-process and TCP runs of the distributed engine.
func checkMatrix(rep solveRep) []string {
	var bad []string
	trajectory := func(i int) core.Stats {
		st := rep.Sols[i].Stats
		st.BinSplits = 0
		return st
	}
	for i := 1; i < numSolveConfigs; i++ {
		if trajectory(i) != trajectory(cfgSerial) {
			bad = append(bad, fmt.Sprintf("%s stats %+v differ from serial %+v",
				solveConfigs[i].name, trajectory(i), trajectory(cfgSerial)))
		}
	}
	same := func(a, b int) {
		fa, fb := rep.Sols[a].Forest.Fingerprint(), rep.Sols[b].Forest.Fingerprint()
		sa, sb := rep.Sols[a].Stats.BinSplits, rep.Sols[b].Stats.BinSplits
		if fa != fb || sa != sb {
			bad = append(bad, fmt.Sprintf("%s forest %016x (%d splits) differs from %s %016x (%d splits)",
				solveConfigs[a].name, fa, sa, solveConfigs[b].name, fb, sb))
		}
	}
	same(cfgSharedW1, cfgSerial)
	same(cfgShared, cfgSerial)
	same(cfgDistTCP, cfgDist)
	return bad
}
