package main

// One run of one workload: derive the inputs from the seed, set the
// program up three times, run the timed window (engine matrix, closed-loop
// walk, open-loop probe phase, open-loop full phase), then check every
// output and — in a traced run — measure the layers.

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/scenes"
)

// setupRuns is how many times a run sets the program up; setup_s is the
// median, which is what keeps it steady enough to gate.
const setupRuns = 3

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind the value (repetitions or
	// requests); 0 for counters and derived ratios.
	N int `json:"n,omitempty"`
	// Note says which percentile or definition applies, where the name
	// alone does not.
	Note string `json:"note,omitempty"`
}

// runResult is everything one run reports; -out writes it.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Host      hostStamp         `json:"host"`
	WindowS   float64           `json:"window_s"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// UnderTrace is a traced run's end-to-end set: measured with tracing
	// on, so never the gated numbers, but what its shares are shares of.
	UnderTrace map[string]metric `json:"under_trace,omitempty"`
	// Claim is always null: the benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
	Spans []span  `json:"spans,omitempty"`
}

// inputs is what the seed generates: the program sees only these.
type inputs struct {
	solveScene string
	scenes     []string        // served scene names
	built      []*scenes.Scene // the benchmark's own copies, for bounds and reference frames
	cameras    int             // viewpoints per scene
	shots      []shot          // every distinct request of the run
	walk       []walkStep
	probeOrder []int // shot indexes, one per arrival
	fullOrder  []int
}

// shotIndex locates a scene's camera in inputs.shots: probe at even
// indexes, full at the odd one after.
func (in *inputs) shotIndex(scene, camera int, full bool) int {
	i := (scene*in.cameras + camera) * 2
	if full {
		i++
	}
	return i
}

func makeInputs(w workload, seed int64, seconds float64) (*inputs, error) {
	r := rand.New(rand.NewSource(seed))
	in := &inputs{scenes: w.sceneNames(r)}
	in.cameras = warmShots / w.Warm
	in.solveScene = w.SolveScene
	if w.OfficeScenes > 0 {
		in.solveScene = in.scenes[0]
	}
	for s, name := range in.scenes {
		ctor, err := scenes.ByName(name)
		if err != nil {
			return nil, err
		}
		sc, err := ctor()
		if err != nil {
			return nil, err
		}
		in.built = append(in.built, sc)
		eyes, lookats := drawCameras(r, sc.Geom.Bounds(), in.cameras)
		for c := range eyes {
			v := shot{Scene: name, Eye: eyes[c], LookAt: lookats[c], sceneIdx: s, cameraIdx: c}
			probe, full := v, v
			probe.Quality, probe.W, probe.H = "probe", w.ProbeW, w.ProbeH
			full.Quality, full.W, full.H, full.Samples = "full", w.FullW, w.FullH, 1
			in.shots = append(in.shots, probe, full)
		}
	}
	slices := slicesFor(seconds)
	if w.Churn {
		in.walk = churnWalk(r, slices*w.WalkSteps, len(in.scenes), w.Top.Cache)
	} else {
		in.walk = coldWalk(slices*w.WalkSteps, len(in.scenes), w.HitsPerOpen)
	}
	arrivals := func(perSlice int, full bool) []int {
		order := make([]int, slices*perSlice)
		for i := range order {
			order[i] = in.shotIndex(r.Intn(w.Warm), r.Intn(in.cameras), full)
		}
		return order
	}
	in.probeOrder = arrivals(w.ProbeArrivals, false)
	in.fullOrder = arrivals(w.FullArrivals, true)
	return in, nil
}

// environment is what set-up leaves for the window.
type environment struct {
	scene *scenes.Scene // the solve scene, built by the program
	farm  *farm         // with the warm scenes resident
}

func (e *environment) close() {
	if e != nil && e.farm != nil {
		e.farm.close()
	}
}

// setUp does what has to happen before the window can be timed: build the
// solve scene and its octree, run every engine configuration once at a
// tenth of the size so pools and code paths are warm, start the farm and
// make the warm scenes resident by requesting them through its entry point.
func setUp(tr *tracer, w workload, in *inputs) (*environment, error) {
	root := tr.start("bench.setup", 0)
	defer tr.end(root)

	ctor, err := scenes.ByName(in.solveScene)
	if err != nil {
		return nil, err
	}
	id := tr.start("scenes.build", root)
	sc, err := ctor()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if _, err := runMatrix(tr, root, sc, max(w.Photons/10, 1000)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	f, err := newFarm(tr, w.Top, width)
	if err != nil {
		return nil, err
	}
	for s := 0; s < w.Warm; s++ {
		path := in.shots[in.shotIndex(s, 0, false)].path()
		if code, err := f.get(path); err != nil || code != 200 {
			f.close()
			return nil, fmt.Errorf("warming %s: status %d, %v", in.scenes[s], code, err)
		}
	}
	return &environment{scene: sc, farm: f}, nil
}

// window is the raw material of the timed part of a run.
type window struct {
	reps     []solveRep // Sols dropped except in the last
	walk     []sample
	probe    []sample
	full     []sample
	counters map[string]int64 // summed over every farm the window used
	seconds  float64
	problems []string
}

// part is slice k of n equal parts of a list of length total.
func part(total, k, n int) (lo, hi int) { return total * k / n, total * (k + 1) / n }

// runWindow runs the timed window: slice after slice, each one repetition
// of the engine matrix, a stretch of the closed-loop walk on farms of its
// own, and a probe and a full open-loop segment on the farm set-up warmed.
func runWindow(tr *tracer, w workload, in *inputs, env *environment, seconds float64, keep *bodies) (*window, error) {
	win := &window{counters: make(map[string]int64)}
	slices := slicesFor(seconds)
	begin := time.Now()
	before := env.farm.counters()

	var wf *farm // the walk's current farm
	retire := func() {
		if wf != nil {
			for k, v := range wf.counters() {
				win.counters[k] += v
			}
			wf.close()
			wf = nil
		}
	}
	defer retire() // on the error paths; the last slice retires its own

	for k := 0; k < slices; k++ {
		sliceID := tr.start("bench.slice", 0)

		if k%w.SolveEvery == 0 {
			solveID := tr.start("bench.solve", sliceID)
			rep, err := runMatrix(tr, solveID, env.scene, w.Photons)
			tr.end(solveID)
			if err != nil {
				return nil, err
			}
			win.problems = append(win.problems, checkMatrix(rep)...)
			if n := len(win.reps); n > 0 {
				// Only the last repetition's solutions are looked at again.
				win.reps[n-1].Sols = [numSolveConfigs]*engine.Solution{}
			}
			win.reps = append(win.reps, rep)
			// The serving phases start from a collected heap, as a server
			// that never ran the solver would: six forests of garbage would
			// otherwise be collected in the middle of somebody's frame.
			runtime.GC()
		}

		walkID := tr.start("bench.walk", sliceID)
		walkBegin := time.Now()
		lo, hi := part(len(in.walk), k, slices)
		for _, step := range in.walk[lo:hi] {
			if step.Fresh {
				retire()
				var err error
				if wf, err = newFarm(tr, w.Top, width); err != nil {
					return nil, err
				}
			}
			si := in.shotIndex(step.Scene, 0, false)
			s := wf.fetch(tr, walkID, in.shots, si, keep, walkBegin, time.Since(walkBegin))
			if s.ok() && s.Hit != step.Hit {
				win.problems = append(win.problems, fmt.Sprintf(
					"walk: %s answered X-Cache hit=%v, the sequence was built for hit=%v", in.scenes[step.Scene], s.Hit, step.Hit))
			}
			win.walk = append(win.walk, s)
		}
		tr.end(walkID)

		probeID := tr.start("bench.probe", sliceID)
		lo, hi = part(len(in.probeOrder), k, slices)
		win.probe = append(win.probe, env.farm.openLoop(tr, probeID, in.shots, in.probeOrder[lo:hi], w.ProbeRate, width, keep)...)
		tr.end(probeID)

		fullID := tr.start("bench.full", sliceID)
		lo, hi = part(len(in.fullOrder), k, slices)
		win.full = append(win.full, env.farm.openLoop(tr, fullID, in.shots, in.fullOrder[lo:hi], w.FullRate, width, keep)...)
		tr.end(fullID)

		tr.end(sliceID)
	}
	retire()
	for k, v := range env.farm.counters() {
		win.counters[k] += v - before[k]
	}
	win.seconds = time.Since(begin).Seconds()
	return win, nil
}

// runWorkload is one complete run.
func runWorkload(w workload, seed int64, seconds float64, traced bool) (*runResult, error) {
	res := &runResult{
		Workload: w.Name, Seed: seed, Seconds: seconds, Traced: traced,
		Host: stampHost(seed), Metrics: make(map[string]metric),
	}
	var tr *tracer
	if traced {
		tr = newTracer(fmt.Sprintf("%s/seed=%d", w.Name, seed))
	}
	in, err := makeInputs(w, seed, seconds)
	if err != nil {
		return nil, err
	}

	var env *environment
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		env.close()
		// Each set-up starts from a collected heap, as a fresh process
		// would; the window that follows starts the same way.
		runtime.GC()
		start := time.Now()
		if env, err = setUp(tr, w, in); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer env.close()
	runtime.GC()

	keep := &bodies{first: make(map[int][]byte)}
	win, err := runWindow(tr, w, in, env, seconds, keep)
	if err != nil {
		return nil, err
	}
	res.WindowS = win.seconds

	// Outside the window: every response against a direct render, and in a
	// traced run the layer measurements.
	ref, err := checkFrames(tr, w, in, win, keep)
	if err != nil {
		return nil, err
	}
	res.Problems = append(win.problems, ref.problems...)
	res.Attempted = len(win.reps)*numSolveConfigs + len(win.walk) + len(win.probe) + len(win.full)
	res.Failed = min(res.Attempted, len(res.Problems))

	endToEnd(res, w, setups, win)
	if traced {
		if err := perLayer(res, tr, w, in, env, win, ref); err != nil {
			return nil, err
		}
		res.Spans = tr.finished()
	}
	return res, nil
}

// rates returns configuration i's photons per second in every repetition.
func (win *window) rates(i int, photons int64) []float64 {
	out := make([]float64, len(win.reps))
	for k, rep := range win.reps {
		out[k] = float64(photons) / rep.Seconds[i]
	}
	return out
}

// endToEnd fills in the metrics measured with tracing off. (A traced run
// computes them too — the per-layer shares need them — but reports only the
// per-layer set.)
func endToEnd(res *runResult, w workload, setups []float64, win *window) {
	m := res.Metrics
	m["setup_s"] = metric{Value: median(setups), Unit: "s", N: len(setups)}

	for _, i := range []int{cfgSerial, cfgShared, cfgDist, cfgDistTCP, cfgGeo} {
		r := win.rates(i, w.Photons)
		m["solve_photons_per_s."+solveConfigs[i].name] = metric{Value: median(r), Unit: "photons/s", N: len(r)}
	}
	w1, w2 := win.rates(cfgSharedW1, w.Photons), win.rates(cfgShared, w.Photons)
	eff := make([]float64, len(w1))
	for k := range eff {
		eff[k] = w2[k] / (width * w1[k])
	}
	m["shared_scaling_eff"] = metric{Value: median(eff), Unit: "ratio", N: len(eff),
		Note: "shared w=2 over 2x shared w=1, per repetition"}

	probe := summarize(win.probe, 0.95)
	m["served_probe_p50_ms"] = metric{Value: probe.P50, Unit: "ms", N: probe.N}
	m["served_probe_p95_ms"] = metric{Value: probe.Tail, Unit: "ms", N: probe.N, Note: tailNote(probe.N, 0.95)}
	full := summarize(win.full, 0.75)
	m["served_full_p50_ms"] = metric{Value: full.P50, Unit: "ms", N: full.N}
	m["served_full_p75_ms"] = metric{Value: full.Tail, Unit: "ms", N: full.N, Note: tailNote(full.N, 0.75)}

	var miss, hit []float64
	for _, s := range win.walk {
		switch {
		case !s.ok():
		case s.Hit:
			hit = append(hit, s.latency().Seconds()*1e3)
		default:
			miss = append(miss, s.latency().Seconds())
		}
	}
	m["first_frame_s"] = metric{Value: median(miss), Unit: "s", N: len(miss), Note: "median miss latency, closed loop"}
	m["churn_hit_p50_ms"] = metric{Value: median(hit), Unit: "ms", N: len(hit), Note: "median hit latency, closed loop"}
}

// tailNote flags a tail percentile the sample is too small for: a window
// shorter than the contract's leaves fewer than ten samples beyond it.
func tailNote(n int, q float64) string {
	if supportedTail(n) < q {
		return fmt.Sprintf("fewer than %d samples beyond this percentile: lengthen -seconds", minBeyond)
	}
	return ""
}
