package main

// The four workloads. A workload is one set of inputs: a scene to solve, a
// farm shape, scenes to serve and a traffic mix. Every workload runs the
// whole two-stage program — the engine matrix, first frames, a probe phase
// and a full phase — because the benchmark contract wants every end-to-end
// metric from every workload; what differs is the input and which phase
// gets most of the timed window. The `why` strings are BENCHMARK.json's.
//
// Sizes are frozen here; they are per slice of the window (see
// sliceSeconds), so -seconds changes how many slices run, not what one does.

import (
	"fmt"
	"math/rand"

	"repro/internal/vecmath"
)

// sliceSeconds is the length a slice is sized for. The timed window is cut
// into seconds/sliceSeconds slices, and every slice runs the whole mix: one
// repetition of the engine matrix, its share of the closed-loop walk, a
// segment of probe arrivals and a segment of full arrivals. A metric's
// samples are pooled over the slices, so each one is drawn from the whole
// window, not from the few seconds one phase would occupy: this host speeds
// up and slows down by a tenth or more for seconds at a time, and a phase
// that fell entirely into one such stretch would report the stretch. Eight
// slices in the contract's 20 seconds measured steadier than four.
const sliceSeconds = 2.5

// slicesFor is how many slices a window of the given length has.
func slicesFor(seconds float64) int {
	return max(2, int(seconds/sliceSeconds+0.5))
}

// simPhotons is the fill budget of every replica: half the server's
// default, so that three set-ups and a dozen reference solves fit a run.
const simPhotons = 100000

// warmShots is how many distinct viewpoints the open-loop phases request,
// shared equally among the warm scenes: 32 cameras in the one box, 8 in each
// of four offices. A frame's cost depends on what the camera sees, and a
// tail percentile is the costliest few cameras; with fewer than this the
// tail followed the seed's luckiest or unluckiest draw. Every distinct
// request is checked against a direct render, so this also sizes the check.
const warmShots = 32

// workload sizes are per slice, chosen so that a slice takes about
// sliceSeconds on the two cores of the reference host.
type workload struct {
	Name string
	Why  string

	// SolveScene names the scene the engine matrix solves; with
	// OfficeScenes > 0 it is the first generated office instead.
	SolveScene string
	// Photons is the budget of every configuration in a repetition of the
	// matrix; a repetition runs in every SolveEvery-th slice.
	Photons    int64
	SolveEvery int

	// OfficeScenes is how many gen:office specs are derived from the seed
	// (0 = serve SolveScene itself); the first Warm of the served scenes are
	// filled during set-up and take the open-loop arrivals.
	OfficeScenes int
	Warm         int
	Top          topology

	// The closed-loop walk: WalkSteps requests per slice from one client.
	// Churn: a seeded sequence over all the scenes through one farm, built
	// so that about half the requests miss. Otherwise: scenes opened cold
	// one after another (a miss each) and revisited HitsPerOpen times, on a
	// fresh farm each time round the scene list.
	WalkSteps   int
	Churn       bool
	HitsPerOpen int

	// Open-loop segments: arrivals per second, arrivals per slice, frame.
	ProbeRate      float64
	ProbeArrivals  int
	ProbeW, ProbeH int
	FullRate       float64
	FullArrivals   int
	FullW, FullH   int
}

var workloads = []workload{
	{
		Name: "solve-box",
		Why: "cornell-box, 33-node octree: RNG, emission, BRDF, tally staging and bintree inserts carry stage one and " +
			"the forest gather carries a full frame; an octree-walk change should barely move it",
		SolveScene: "cornell-box", Photons: 80000, SolveEvery: 1,
		Warm:      1,
		Top:       topology{Replicas: 1, SimPhotons: simPhotons},
		WalkSteps: 26, HitsPerOpen: 12,
		ProbeRate: 100, ProbeArrivals: 35, ProbeW: 160, ProbeH: 120,
		FullRate: 8, FullArrivals: 6, FullW: 320, FullH: 240,
	},
	{
		Name: "solve-grid",
		Why: "10k-patch grid, 5945-node depth-5 octree: the octree walk and the per-round tally exchange dominate; " +
			"walk, Wave and dist/mpi changes must show here, a bintree-only change must not",
		// 30 000 photons every other slice, not 15 000 in every slice: below
		// about 25 000 the distributed engine's pre-phase always hands rank 1
		// the heavy half of the 160 k section trees, and the TCP run then
		// spends twice as long gathering 29 MB of mostly empty trees as it
		// does tracing (see solveSeed).
		SolveScene: "gen:grid/seed=1/patches=10000", Photons: 30000, SolveEvery: 2,
		Warm:      1,
		Top:       topology{Replicas: 1, SimPhotons: simPhotons},
		WalkSteps: 7, HitsPerOpen: 13,
		ProbeRate: 40, ProbeArrivals: 25, ProbeW: 160, ProbeH: 120,
		FullRate: 10, FullArrivals: 6, FullW: 160, FullH: 120,
	},
	{
		Name: "serve-warm",
		Why: "router and two replicas, four resident offices, open-loop probe and full frames: every request is a " +
			"cache read; probe frames are the fixed floor (hop, HTTP, admission, PNG), full frames view.Render",
		Photons: 15000, SolveEvery: 1,
		OfficeScenes: 4, Warm: 4,
		Top:       topology{Replicas: 2, Routed: true, SimPhotons: simPhotons},
		WalkSteps: 13, HitsPerOpen: 12,
		ProbeRate: 100, ProbeArrivals: 125, ProbeW: 160, ProbeH: 120,
		FullRate: 8, FullArrivals: 7, FullW: 320, FullH: 240,
	},
	{
		Name: "serve-churn",
		Why: "one closed-loop client walking 12 offices through a 4-entry cache, half the requests missing: fills, " +
			"evictions and singleflight pinning beside hits; a miss is scene spec to first PNG",
		Photons: 15000, SolveEvery: 1,
		OfficeScenes: 12, Warm: 4,
		Top:       topology{Replicas: 1, Cache: 4, SimPhotons: simPhotons},
		WalkSteps: 7, Churn: true,
		ProbeRate: 100, ProbeArrivals: 35, ProbeW: 160, ProbeH: 120,
		FullRate: 8, FullArrivals: 6, FullW: 320, FullH: 240,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// officeSpec is the canonical generator spec of one seeded two-room office.
func officeSpec(seed int64) string {
	return fmt.Sprintf("gen:office/seed=%d/rooms=2/density=0.6", seed)
}

// sceneNames derives the served scene list from the seed: distinct office
// seeds, or the solve scene alone.
func (w workload) sceneNames(r *rand.Rand) []string {
	if w.OfficeScenes == 0 {
		return []string{w.SolveScene}
	}
	seen := make(map[int64]bool)
	var out []string
	for len(out) < w.OfficeScenes {
		s := 1 + r.Int63n(1<<20)
		if !seen[s] {
			seen[s] = true
			out = append(out, officeSpec(s))
		}
	}
	return out
}

// drawCameras places n viewpoints inside bounds: the eye in the middle
// half of the floor plan at mid height, looking at another interior point a
// fair way off, so no frame stares at the inside of a wall it sits in.
func drawCameras(r *rand.Rand, b vecmath.AABB, n int) (eyes, lookats [][3]float64) {
	size := b.Size()
	diag := size.Len()
	in := func(lo, span float64) [3]float64 {
		return [3]float64{
			b.Min.X + size.X*(lo+span*r.Float64()),
			b.Min.Y + size.Y*(lo+span*r.Float64()),
			b.Min.Z + size.Z*(0.35+0.3*r.Float64()),
		}
	}
	for len(eyes) < n {
		eye, at := in(0.25, 0.5), in(0.1, 0.8)
		d := vecmath.V(at[0]-eye[0], at[1]-eye[1], at[2]-eye[2]).Len()
		if d < 0.2*diag {
			continue
		}
		eyes, lookats = append(eyes, eye), append(lookats, at)
	}
	return eyes, lookats
}

// walkStep is one request of the closed-loop walk.
type walkStep struct {
	Scene int  // index into the scene list
	Fresh bool // start a cold farm before this request
	Hit   bool // the cache state the step is built to find
}

// churnWalk builds the seeded churn sequence: n requests over scenes
// distinct scenes through an LRU of capacity cache, simulated here so that
// each request is chosen to hit or to miss with equal odds. The predicted
// outcome of every step is part of the sequence, which turns the server's
// X-Cache header into a correctness check of its cache.
func churnWalk(r *rand.Rand, n, scenes, cache int) []walkStep {
	var lru []int // most recent first
	steps := make([]walkStep, 0, n)
	for i := 0; i < n; i++ {
		wantHit := len(lru) > 0 && r.Intn(2) == 0
		var scene int
		if wantHit {
			scene = lru[r.Intn(len(lru))]
		} else {
			var cold []int
			for s := 0; s < scenes; s++ {
				resident := false
				for _, l := range lru {
					resident = resident || l == s
				}
				if !resident {
					cold = append(cold, s)
				}
			}
			scene = cold[r.Intn(len(cold))]
		}
		steps = append(steps, walkStep{Scene: scene, Fresh: i == 0, Hit: wantHit})
		// Move to front, trim to capacity.
		next := []int{scene}
		for _, l := range lru {
			if l != scene {
				next = append(next, l)
			}
		}
		lru = next[:min(len(next), cache)]
	}
	return steps
}

// coldWalk builds the walk of the other workloads: a cold farm, every
// scene opened once (a miss) and revisited hits times, over and over until
// steps requests are planned.
func coldWalk(steps, scenes, hits int) []walkStep {
	var out []walkStep
	for len(out) < steps {
		for s := 0; s < scenes && len(out) < steps; s++ {
			out = append(out, walkStep{Scene: s, Fresh: s == 0})
			for h := 0; h < hits && len(out) < steps; h++ {
				out = append(out, walkStep{Scene: s, Hit: true})
			}
		}
	}
	return out
}
