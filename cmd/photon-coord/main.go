// photon-coord runs the coordinator (and rank 0) of a multi-process
// Photon simulation. It serves a control port, waits for -ranks-1
// photon-worker processes to join, executes the job, and writes the
// answer file plus a JSON result summary.
//
// Single-machine quickstart (see README for the full walkthrough):
//
//	photon-coord -scene quickstart -photons 200000 -ranks 4 \
//	    -listen 127.0.0.1:9333 -o answer.pbf &
//	photon-worker -coord 127.0.0.1:9333 &
//	photon-worker -coord 127.0.0.1:9333 &
//	photon-worker -coord 127.0.0.1:9333 &
//
// The coordinator checkpoints to -checkpoint every -checkpoint-every
// rounds; if a worker dies, the attempt restarts from the last
// checkpoint as soon as a replacement joins.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"time"

	photon "repro"
	"repro/internal/coord"
	"repro/internal/dist"
)

// resultSummary is the machine-readable job outcome, written as one JSON
// object to -json (or stdout with "-"). The subprocess conformance tests
// compare it field by field against an in-process run.
type resultSummary struct {
	Fingerprint string           `json:"fingerprint"`
	Stats       any              `json:"stats"`
	PerRank     []dist.RankStats `json:"perRank"`
	Forwards    int64            `json:"forwards"`
	Messages    int64            `json:"messages"`
	Bytes       int64            `json:"bytes"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("photon-coord: ")

	var (
		listen    = flag.String("listen", "127.0.0.1:0", "control address workers join")
		addrFile  = flag.String("addr-file", "", "write the bound control address to this file (for scripted launches of ephemeral ports)")
		meshHost  = flag.String("mesh-host", "127.0.0.1", "host the rank-0 mesh listener advertises")
		sceneName = flag.String("scene", "quickstart", "scene: "+strings.Join(photon.SceneNames(), ", ")+", or gen:<family>/seed=N/...")
		photons   = flag.Int64("photons", 200000, "photons to emit")
		seed      = flag.Int64("seed", 1, "random seed")
		engine    = flag.String("engine", "replicated", "engine: replicated, geo")
		ranks     = flag.Int("ranks", 2, "total ranks, this coordinator included")
		batch     = flag.Int("batch", 0, "photons per exchange round (0 = engine default: 500 replicated, 2000 geo)")
		sections  = flag.Int("sections", 0, "per-axis forest sections (0 = engine default: 4 replicated, 1 geo; geo refuses more)")
		ckptEvery = flag.Int("checkpoint-every", 4, "checkpoint every N rounds (replicated; 0 disables)")
		ckptPath  = flag.String("checkpoint", "", "persist checkpoints to this file")
		resume    = flag.String("resume", "", "resume the job from this checkpoint file")
		hbTimeout = flag.Duration("heartbeat-timeout", 10*time.Second, "declare a silent worker dead after this long")
		attempts  = flag.Int("max-attempts", 5, "give up after this many failed attempts")
		out       = flag.String("o", "answer.pbf", "output answer file (empty disables)")
		jsonOut   = flag.String("json", "", "write the result summary JSON to this file (- for stdout)")
	)
	flag.Parse()

	job := coord.JobSpec{
		Scene:           *sceneName,
		Engine:          *engine,
		Photons:         *photons,
		Seed:            *seed,
		Ranks:           *ranks,
		BatchSize:       *batch,
		Sections:        *sections,
		CheckpointEvery: *ckptEvery,
	}
	if *engine == "geo" {
		job.CheckpointEvery = 0
	}
	opt := coord.CoordOptions{
		MeshHost:         *meshHost,
		CheckpointPath:   *ckptPath,
		HeartbeatTimeout: *hbTimeout,
		MaxAttempts:      *attempts,
	}
	if *resume != "" {
		ck, err := dist.LoadCheckpoint(*resume)
		if err != nil {
			log.Fatal(err)
		}
		opt.Resume = ck
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("control port %s, waiting for %d workers", ln.Addr(), *ranks-1)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	start := time.Now()
	res, err := coord.RunCoordinator(ln, job, opt)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	st := res.Stats
	log.Printf("done in %v (%.0f photons/sec), fingerprint %016x",
		elapsed.Round(time.Millisecond), float64(st.PhotonsEmitted)/elapsed.Seconds(),
		res.Forest.Fingerprint())

	if *out != "" {
		sol := photon.SolutionFromResult(res.Result)
		if err := sol.SaveFile(*out); err != nil {
			log.Fatal(err)
		}
		log.Printf("answer written to %s", *out)
	}
	if *jsonOut != "" {
		sum := resultSummary{
			Fingerprint: fmt.Sprintf("%016x", res.Forest.Fingerprint()),
			Stats:       res.Stats,
			PerRank:     res.PerRank,
			Forwards:    res.Forwards,
			Messages:    res.Traffic.Messages,
			Bytes:       res.Traffic.Bytes,
		}
		buf, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		buf = append(buf, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(buf)
		} else if err := os.WriteFile(*jsonOut, buf, 0o644); err != nil {
			log.Fatal(err)
		}
	}
}
