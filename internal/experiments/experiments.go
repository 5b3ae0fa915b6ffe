// Package experiments regenerates every table and figure of the paper's
// evaluation (chapter 5 and the HPDC'97 appendix), plus the background
// comparisons the argument rests on. Each experiment returns a Result with
// rendered text (the same rows/series the paper reports) and structured
// values that the test suite asserts shape properties on.
//
// Scale: the paper traced up to billions of photons on 1997 hardware; the
// experiments default to budgets that run in seconds and expose the same
// qualitative behaviour. EXPERIMENTS.md records paper-versus-measured for
// every entry.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/bintree"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/perfmodel"
	"repro/internal/rng"
	"repro/internal/sampler"
	"repro/internal/scenes"
	"repro/internal/sphharm"
	"repro/internal/stats"
	"repro/internal/vecmath"
	"repro/internal/view"
)

// Result is a completed experiment.
type Result struct {
	ID     string
	Title  string
	Text   string
	Values map[string]float64
}

func newResult(id, title string) *Result {
	return &Result{ID: id, Title: title, Values: map[string]float64{}}
}

// Table51 regenerates Table 5.1: defining polygons versus view-dependent
// polygons (bin-forest leaves) for the three scenes. The Cornell Box runs a
// longer simulation, as the paper notes ("the simulation has been run much
// longer to generate a higher level of detail" for the mirror).
func Table51(budget int64) (*Result, error) {
	if budget <= 0 {
		budget = 400000
	}
	r := newResult("table-5.1", "Table 5.1: Test Geometry Sizes")
	tb := stats.NewTable(r.Title, "Geometry", "Defining Polygons", "View-Dependent Polygons (measured)", "Paper (defining/view-dep)")
	type row struct {
		name    string
		ctor    func() (*scenes.Scene, error)
		photons int64
		paper   string
	}
	rows := []row{
		{"Cornell Box", scenes.CornellBox, budget * 3, "30 / 397,000"},
		{"Harpsichord Practice Room", scenes.HarpsichordRoom, budget, "100 / 150,000"},
		{"Computer Laboratory", scenes.ComputerLab, budget, "2000 / 350,000"},
	}
	for _, rw := range rows {
		sc, err := rw.ctor()
		if err != nil {
			return nil, err
		}
		res, err := core.Run(sc, core.DefaultConfig(rw.photons))
		if err != nil {
			return nil, err
		}
		leaves := res.Forest.TotalLeaves()
		tb.AddRow(rw.name, sc.DefiningPolygons(), leaves, rw.paper)
		key := strings.Fields(rw.name)[0]
		r.Values["defining-"+key] = float64(sc.DefiningPolygons())
		r.Values["leaves-"+key] = float64(leaves)
	}
	r.Text = tb.String()
	return r, nil
}

// Table52 regenerates Table 5.2: total photons processed per processor
// under naive load balancing versus Best-Fit bin packing (8 ranks,
// Harpsichord Room), counts in thousands.
func Table52(photons int64) (*Result, error) {
	if photons <= 0 {
		photons = 120000
	}
	r := newResult("table-5.2", "Table 5.2: Photons Processed, Naive vs Bin Packing (8 procs)")
	sc, err := scenes.HarpsichordRoom()
	if err != nil {
		return nil, err
	}
	run := func(b dist.Balance) ([]float64, error) {
		cfg := dist.DefaultConfig(photons, 8)
		cfg.Balance = b
		res, err := dist.Run(sc, cfg)
		if err != nil {
			return nil, err
		}
		out := make([]float64, 8)
		for i, rs := range res.PerRank {
			out[i] = float64(rs.TalliesApplied) / 1000
		}
		return out, nil
	}
	naive, err := run(dist.BalanceNaive)
	if err != nil {
		return nil, err
	}
	packed, err := run(dist.BalanceBinPack)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable(r.Title, "Processor", "Naive Load Balance (k)", "Bin Packing (k)")
	for i := 0; i < 8; i++ {
		tb.AddRow(i, naive[i], packed[i])
	}
	nMin, nMax := stats.MinMax(naive)
	pMin, pMax := stats.MinMax(packed)
	r.Values["naive-maxmin"] = safeRatio(nMax, nMin)
	r.Values["packed-maxmin"] = safeRatio(pMax, pMin)
	fmt.Fprintf(&strBuilder{r}, "%s\nmax/min: naive %.2f (paper 1.92), bin packing %.2f (paper 1.04)\n",
		tb.String(), r.Values["naive-maxmin"], r.Values["packed-maxmin"])
	return r, nil
}

// strBuilder lets fmt.Fprintf append to a Result's Text.
type strBuilder struct{ r *Result }

func (b *strBuilder) Write(p []byte) (int, error) {
	b.r.Text += string(p)
	return len(p), nil
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Table53 regenerates Table 5.3: the adaptive batch-size sequences on the
// three platform models (Harpsichord Room, 8 processors).
func Table53() (*Result, error) {
	r := newResult("table-5.3", "Table 5.3: Simulation Batch Sizes (Harpsichord Room, 8 procs)")
	hr := perfmodel.HarpsichordModel()
	seqs := map[string][]int64{}
	paper := map[string][]int64{
		"SGI Power Onyx":   {500, 750, 1125, 1687, 1518, 2277, 3415, 3073, 4609, 4148, 6222, 7558, 11337},
		"IBM SP-2":         {500, 750, 675, 1012, 1012, 910, 1365, 1365, 1228, 1842, 1657, 1657, 1657},
		"SGI Indy Cluster": {500, 750, 1125, 1125, 1125, 1125, 1012, 1012, 1012, 1012, 1518, 1518, 1518},
	}
	tb := stats.NewTable(r.Title, "Step", "Onyx (model)", "Onyx (paper)", "SP-2 (model)", "SP-2 (paper)", "Indy (model)", "Indy (paper)")
	for _, p := range perfmodel.Platforms() {
		seqs[p.Name] = perfmodel.BatchSchedule(p, hr, 8, 13)
	}
	for i := 0; i < 13; i++ {
		tb.AddRow(i+1,
			seqs["SGI Power Onyx"][i], paper["SGI Power Onyx"][i],
			seqs["IBM SP-2"][i], paper["IBM SP-2"][i],
			seqs["SGI Indy Cluster"][i], paper["SGI Indy Cluster"][i])
	}
	r.Text = tb.String()
	r.Values["onyx-final"] = float64(seqs["SGI Power Onyx"][12])
	r.Values["sp2-final"] = float64(seqs["IBM SP-2"][12])
	r.Values["indy-final"] = float64(seqs["SGI Indy Cluster"][12])
	return r, nil
}

// Fig43Kernels regenerates the chapter-4 photon-generation comparison: the
// Gustafson rejection kernel versus the Shirley/Sillion closed form, both
// in the flop model (34 vs ~22) and in measured wall time on this host
// ("experiments show that our photon generation kernel is about twice as
// fast").
func Fig43Kernels(samples int) (*Result, error) {
	if samples <= 0 {
		samples = 2_000_000
	}
	r := newResult("fig-4.3", "Figure 4.3: Photon Generation Kernel Comparison")
	timeKernel := func(fn func(*rng.Source) vecmath.Vec3) float64 {
		src := rng.New(1)
		var sink vecmath.Vec3
		start := time.Now()
		for i := 0; i < samples; i++ {
			sink = fn(src)
		}
		_ = sink
		return time.Since(start).Seconds()
	}
	tShirley := timeKernel(sampler.ShirleyDirection)
	tGustafson := timeKernel(sampler.GustafsonDirection)
	tb := stats.NewTable(r.Title, "Kernel", "Flops (model)", "Time (this host)", "Msamples/s")
	tb.AddRow("Shirley/Sillion closed form", sampler.FlopsShirley,
		fmt.Sprintf("%.3fs", tShirley), float64(samples)/tShirley/1e6)
	tb.AddRow("Gustafson rejection", fmt.Sprintf("%.2f", sampler.ExpectedGustafsonFlops()),
		fmt.Sprintf("%.3fs", tGustafson), float64(samples)/tGustafson/1e6)
	r.Values["speedup"] = tShirley / tGustafson
	r.Values["flop-ratio"] = float64(sampler.FlopsShirley) / sampler.ExpectedGustafsonFlops()
	r.Text = tb.String() + fmt.Sprintf("measured speedup %.2fx (paper: about 2x; flop model %.2fx)\n",
		r.Values["speedup"], r.Values["flop-ratio"])
	return r, nil
}

// Fig54Memory regenerates Figure 5.4: bin-forest memory versus photons for
// the Harpsichord Room — rapid initial buildup, then sub-linear growth.
// Geometry storage is constant in the photon count, so the figure plots
// the forest alone.
func Fig54Memory(maxPhotons int64) (*Result, error) {
	if maxPhotons <= 0 {
		maxPhotons = 600000
	}
	r := newResult("fig-5.4", "Figure 5.4: Memory Requirements (Harpsichord Practice Room)")
	sc, err := scenes.HarpsichordRoom()
	if err != nil {
		return nil, err
	}
	sim, err := core.NewSimulator(sc, core.DefaultConfig(maxPhotons))
	if err != nil {
		return nil, err
	}
	forest := bintree.NewForest(len(sc.Geom.Patches), bintree.DefaultConfig())
	deliver := func(t core.Tally) { forest.Add(int(t.Patch), t.Point, t.Power) }
	var st core.Stats
	const points = 24
	var xs, ys []float64
	step := maxPhotons / points
	for k := int64(0); k < points; k++ {
		// Photons [k·step, (k+1)·step) on their own PhotonStream substreams:
		// each point is the forest of the first (k+1)·step photons of a
		// core.Run at this seed.
		sim.Trace(k*step, (k+1)*step, &st, deliver)
		xs = append(xs, float64((k+1)*step))
		ys = append(ys, float64(forest.MemoryBytes())/1e6)
	}
	ch := stats.NewChart(r.Title, "photons", "forest MB")
	ch.LogX = false
	ch.Add(stats.Series{Label: "bin forest size", X: xs, Y: ys})
	firstHalf := ys[points/2-1] - ys[0]
	secondHalf := ys[points-1] - ys[points/2-1]
	r.Values["first-half-growth"] = firstHalf
	r.Values["second-half-growth"] = secondHalf
	r.Values["final-mb"] = ys[points-1]
	r.Text = ch.String() + fmt.Sprintf(
		"growth in first half %.4f MB vs second half %.4f MB (sub-linear after buildup)\n",
		firstHalf, secondHalf)
	return r, nil
}

// speedupFigure renders one platform's three-scene speed-versus-time set
// (Figures 5.6-5.8, 5.9-5.11 or 5.12-5.14).
func speedupFigure(id, title string, p perfmodel.Platform, duration float64) *Result {
	r := newResult(id, title)
	var b strings.Builder
	for _, sm := range perfmodel.SceneModels() {
		ch := stats.NewChart(fmt.Sprintf("%s — %s", p.Name, sm.Name), "time (s)", "photons/sec")
		for _, procs := range p.ProcCounts {
			var tr perfmodel.Trace
			if procs == 1 {
				// Best-serial flat line.
				rate := perfmodel.SerialRate(p, sm)
				tr = perfmodel.Trace{Procs: 1, Points: []perfmodel.TracePoint{
					{Time: perfmodel.SetupTime(p, sm, 1), Speed: rate},
					{Time: duration, Speed: rate},
				}}
			} else {
				tr = perfmodel.SpeedTrace(p, sm, procs, duration)
			}
			xs := make([]float64, len(tr.Points))
			ys := make([]float64, len(tr.Points))
			for i, pt := range tr.Points {
				xs[i], ys[i] = pt.Time, pt.Speed
			}
			ch.Add(stats.Series{Label: fmt.Sprintf("%d processors", procs), X: xs, Y: ys})
			if procs > 1 {
				r.Values[fmt.Sprintf("%s-speedup-%d", sm.Name, procs)] =
					perfmodel.Speedup(p, sm, procs, duration)
			}
		}
		b.WriteString(ch.String())
		b.WriteString("\n")
	}
	r.Text = b.String()
	return r
}

// Fig56to58Shared regenerates Figures 5.6-5.8 (shared-memory Onyx).
func Fig56to58Shared(duration float64) *Result {
	if duration <= 0 {
		duration = 300
	}
	return speedupFigure("fig-5.6-5.8",
		"Figures 5.6-5.8: Shared Memory Speedup (SGI Power Onyx)",
		perfmodel.Onyx(), duration)
}

// Fig59to511Indy regenerates Figures 5.9-5.11 (Indy cluster).
func Fig59to511Indy(duration float64) *Result {
	if duration <= 0 {
		duration = 300
	}
	return speedupFigure("fig-5.9-5.11",
		"Figures 5.9-5.11: Indy Cluster Speedup",
		perfmodel.Indy(), duration)
}

// Fig512to514SP2 regenerates Figures 5.12-5.14 (IBM SP-2, up to 64 procs).
func Fig512to514SP2(duration float64) *Result {
	if duration <= 0 {
		duration = 300
	}
	return speedupFigure("fig-5.12-5.14",
		"Figures 5.12-5.14: SP-2 Speedup",
		perfmodel.SP2(), duration)
}

// Fig515GraphOfGraphs regenerates Figure 5.15: the performance-and-speedup
// versus complexity grid — scene complexity across, platform coupling down.
func Fig515GraphOfGraphs(duration float64) *Result {
	if duration <= 0 {
		duration = 300
	}
	r := newResult("fig-5.15", "Figure 5.15: Performance and Speedup vs Complexity")
	tb := stats.NewTable(r.Title+" (steady-state speedup at max procs; absolute photons/s in parens)",
		"Platform", "Cornell Box", "Harpsichord Room", "Computer Lab")
	for _, p := range perfmodel.Platforms() {
		cells := []interface{}{p.Name}
		for _, sm := range perfmodel.SceneModels() {
			procs := p.MaxProcs
			sp := perfmodel.Speedup(p, sm, procs, duration)
			abs := perfmodel.SpeedTrace(p, sm, procs, duration).FinalSpeed()
			cells = append(cells, fmt.Sprintf("%.2f (%.0f/s)", sp, abs))
			r.Values[fmt.Sprintf("%s|%s", p.Name, sm.Name)] = sp
		}
		tb.AddRow(cells...)
	}
	r.Text = tb.String() +
		"shape checks: scalability rises left to right (complexity); setup time rises top to bottom (coupling)\n"
	return r
}

// Fig516Visual regenerates Figure 5.16: a fixed two-minute budget on 1, 2,
// 4 and 8 processors — more processors, more photons, visibly less noise.
// Virtual-time budgets come from the Onyx model; the photon counts are then
// actually simulated and rendered, and image quality is reported as RMSE
// against a converged reference.
func Fig516Visual(scaleDiv int64) (*Result, error) {
	if scaleDiv <= 0 {
		scaleDiv = 20
	}
	r := newResult("fig-5.16", "Figure 5.16: Visual Speedup (2-minute budget)")
	sc, err := scenes.HarpsichordRoom()
	if err != nil {
		return nil, err
	}
	p := perfmodel.Onyx()
	sm := perfmodel.HarpsichordModel()
	cam := view.Camera{
		Eye:    vecmath.V(6.5, 0.8, 1.8),
		LookAt: vecmath.V(3.5, 3.5, 1.2),
		Up:     vecmath.V(0, 0, 1),
		FovY:   65, Width: 96, Height: 72,
	}
	opts := view.Options{Exposure: 0.15}

	// Reference: 8x the 8-proc budget. All runs share one seed, so each
	// smaller budget is a strict prefix of the reference's photon stream
	// and convergence toward it is monotone — the visual analogue of
	// Figure 5.16's 1/2/4/8-processor panels.
	budget8 := perfmodel.PhotonsInBudget(p, sm, 8, 120) / scaleDiv
	refCfg := core.DefaultConfig(budget8 * 8)
	refRun, err := core.Run(sc, refCfg)
	if err != nil {
		return nil, err
	}
	ref, err := view.Render(sc, refRun.Forest, cam, opts)
	if err != nil {
		return nil, err
	}

	tb := stats.NewTable(r.Title, "Processors", "Photons (modelled 2 min / scale)", "RMSE vs reference")
	for _, procs := range []int{1, 2, 4, 8} {
		photons := perfmodel.PhotonsInBudget(p, sm, procs, 120) / scaleDiv
		if photons < 1000 {
			photons = 1000
		}
		cfg := core.DefaultConfig(photons)
		res, err := core.Run(sc, cfg)
		if err != nil {
			return nil, err
		}
		img, err := view.Render(sc, res.Forest, cam, opts)
		if err != nil {
			return nil, err
		}
		rmse, err := view.RMSE(img, ref)
		if err != nil {
			return nil, err
		}
		tb.AddRow(procs, photons, rmse)
		r.Values[fmt.Sprintf("photons-%d", procs)] = float64(photons)
		r.Values[fmt.Sprintf("rmse-%d", procs)] = rmse
	}
	r.Text = tb.String() + "more processors in the same budget -> more photons -> lower RMSE (less noise)\n"
	return r, nil
}

// Fig24SphHarm regenerates Figure 2.4: the 30-term spherical-harmonic
// approximation to a specular spike, with its ringing and undershoot.
func Fig24SphHarm() *Result {
	r := newResult("fig-2.4", "Figure 2.4: Spherical Harmonic Approximation to Specular Reflection (30 terms)")
	const x0, w = 0.0, 0.05
	xs, ys := sphharm.Series(30, x0, w, 400)
	ch := stats.NewChart(r.Title, "deviation from specular angle", "fraction of full intensity")
	ch.LogX = false
	ch.Add(stats.Series{Label: "30-term reconstruction", X: xs, Y: ys})
	a := sphharm.Analyze(30, x0, w, 2000)
	r.Values["undershoot"] = a.MaxUndershot
	r.Values["peak"] = a.PeakValue
	r.Values["rms"] = a.RMSError
	r.Text = ch.String() + fmt.Sprintf(
		"30 terms: peak %.3f of true height, max undershoot %.3f below zero, RMS error %.4f — \"the accuracy leaves much to be desired\"\n",
		a.PeakValue, a.MaxUndershot, a.RMSError)
	return r
}

// Fig410Viewpoints regenerates Figure 4.10: several viewpoints rendered
// from one answer file with no recomputation — view time is independent of
// the simulation.
func Fig410Viewpoints(photons int64) (*Result, error) {
	if photons <= 0 {
		photons = 250000
	}
	r := newResult("fig-4.10", "Figure 4.10: Different Viewpoints Using the Same Answer File")
	sc, err := scenes.CornellBox()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := core.Run(sc, core.DefaultConfig(photons))
	if err != nil {
		return nil, err
	}
	simTime := time.Since(start)
	cams := []view.Camera{
		{Eye: vecmath.V(2.75, 0.4, 2.75), LookAt: vecmath.V(2.75, 5, 2.75), Up: vecmath.V(0, 0, 1), FovY: 65, Width: 64, Height: 48},
		{Eye: vecmath.V(0.6, 0.6, 4.8), LookAt: vecmath.V(4, 4, 1), Up: vecmath.V(0, 0, 1), FovY: 65, Width: 64, Height: 48},
		{Eye: vecmath.V(4.9, 0.6, 1.2), LookAt: vecmath.V(1, 5, 2.5), Up: vecmath.V(0, 0, 1), FovY: 65, Width: 64, Height: 48},
		{Eye: vecmath.V(2.75, 1.2, 0.6), LookAt: vecmath.V(2.2, 3.0, 2.3), Up: vecmath.V(0, 0, 1), FovY: 70, Width: 64, Height: 48},
	}
	tb := stats.NewTable(r.Title, "Viewpoint", "Render time", "Mean luminance")
	for i, cam := range cams {
		t0 := time.Now()
		img, err := view.Render(sc, res.Forest, cam, view.Options{})
		if err != nil {
			return nil, err
		}
		dt := time.Since(t0)
		ml := view.MeanLuminance(img, img.Bounds())
		tb.AddRow(i+1, fmt.Sprintf("%v", dt.Round(time.Millisecond)), ml)
		r.Values[fmt.Sprintf("lum-%d", i+1)] = ml
		r.Values[fmt.Sprintf("render-ms-%d", i+1)] = float64(dt.Milliseconds())
	}
	r.Values["sim-ms"] = float64(simTime.Milliseconds())
	r.Text = tb.String() + fmt.Sprintf(
		"one simulation (%v), four viewpoints, zero recomputation\n", simTime.Round(time.Millisecond))
	return r, nil
}

// DensityComparison regenerates the chapter-3 comparison against the
// parallelized Density Estimation pipeline (Zareski et al.): tracing phase
// ≈15x on 16, meshing phase Amdahl-capped by the busiest surface, and the
// hit-file versus bin-forest storage gap.
func DensityComparison(photons int64) (*Result, error) {
	if photons <= 0 {
		photons = 120000
	}
	r := newResult("density-baseline", "Density Estimation Baseline (Zareski et al. comparison)")
	sc, err := scenes.HarpsichordRoom()
	if err != nil {
		return nil, err
	}
	den, err := baseline.TraceDensity(sc, photons, 1)
	if err != nil {
		return nil, err
	}
	photonBytes, err := baseline.PhotonStorageBytes(sc, photons, 1)
	if err != nil {
		return nil, err
	}
	f := den.LargestSurfaceFraction()
	tb := stats.NewTable(r.Title, "Metric", "Value", "Paper")
	tb.AddRow("tracing speedup @16", baseline.TracingSpeedup(16), "~15")
	tb.AddRow("meshing speedup @16 (this scene)", baseline.MeshingSpeedup(f, 16), "8.5 (4.5 worst)")
	tb.AddRow("largest-surface hit fraction", f, "-")
	tb.AddRow("hit file bytes", den.FileBytes, "O(n), ~100 B/hit")
	tb.AddRow("Photon bin forest bytes", photonBytes, "1-2 orders smaller")
	tb.AddRow("storage ratio", float64(den.FileBytes)/float64(photonBytes), ">=10x")
	r.Values["trace-speedup"] = baseline.TracingSpeedup(16)
	r.Values["mesh-speedup"] = baseline.MeshingSpeedup(f, 16)
	r.Values["storage-ratio"] = float64(den.FileBytes) / float64(photonBytes)
	r.Text = tb.String()
	return r, nil
}

// RadiosityBaseline regenerates the chapter-2 radiosity facts: form-factor
// row sums of a closed room, the Gerschgorin diagonal-dominance property,
// Jacobi/Gauss-Seidel convergence, and Hanrahan-style hierarchical
// radiosity's patch proliferation as the form-factor tolerance tightens.
func RadiosityBaseline() (*Result, error) {
	r := newResult("radiosity-baseline", "Radiosity Baseline (chapter 2)")
	sc, err := scenes.Quickstart()
	if err != nil {
		return nil, err
	}
	n := len(sc.Geom.Patches)
	rho := make([]float64, n)
	e := make([]float64, n)
	for i := range rho {
		rho[i] = 0.6
		if sc.Geom.Patches[i].IsLuminaire() {
			rho[i], e[i] = 0, 1
		}
	}
	sys, err := baseline.NewRadiositySystem(sc.Geom, rho, e, 4000, 1)
	if err != nil {
		return nil, err
	}
	_, itJ := sys.SolveJacobi(1e-8, 1000)
	_, itG := sys.SolveGaussSeidel(1e-8, 1000)
	rowMin, rowMax := stats.MinMax(sys.RowSums())

	hrLoose := baseline.NewHierarchicalRadiosity(sc.Geom, 0.1, 0.005)
	hrTight := baseline.NewHierarchicalRadiosity(sc.Geom, 0.02, 0.005)
	nLoose := hrLoose.Refine(300)
	nTight := hrTight.Refine(300)

	tb := stats.NewTable(r.Title, "Property", "Value", "Paper claim")
	tb.AddRow("form-factor row sums", fmt.Sprintf("%.3f..%.3f", rowMin, rowMax), "1 (closed room)")
	tb.AddRow("diagonally dominant", fmt.Sprintf("%v", sys.DiagonallyDominant()), "true (Gerschgorin)")
	tb.AddRow("Jacobi iterations (1e-8)", itJ, "constant for fixed precision")
	tb.AddRow("Gauss-Seidel iterations", itG, "<= Jacobi")
	tb.AddRow("hierarchical patches (eps=0.1)", nLoose, "-")
	tb.AddRow("hierarchical patches (eps=0.02)", nTight, "patch proliferation")
	r.Values["jacobi-iters"] = float64(itJ)
	r.Values["gs-iters"] = float64(itG)
	r.Values["hr-loose"] = float64(nLoose)
	r.Values["hr-tight"] = float64(nTight)
	r.Text = tb.String()
	return r, nil
}

// GeoDistribution compares the chapter-6 geometry-distributed engine
// against the replicated-geometry engine on identical workloads: photon
// physics must agree while the communication pattern changes from
// tally-forwarding to photon-flight forwarding. This is the ablation for
// the dissertation's "Massive Parallelism" proposal.
func GeoDistribution(photons int64) (*Result, error) {
	if photons <= 0 {
		photons = 60000
	}
	r := newResult("geo-distribution", "Chapter 6 Ablation: Replicated vs Geometry-Distributed")
	sc, err := scenes.CornellBox()
	if err != nil {
		return nil, err
	}
	const ranks = 8
	cfg := dist.DefaultConfig(photons, ranks)
	repl, err := dist.Run(sc, cfg)
	if err != nil {
		return nil, err
	}
	geo, err := dist.GeoRun(sc, cfg)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable(r.Title, "Metric", "Replicated geometry", "Geometry-distributed")
	tb.AddRow("mean path length", repl.Stats.MeanPathLength(), geo.Stats.MeanPathLength())
	tb.AddRow("forest tallies", repl.Forest.TotalPhotons(), geo.Forest.TotalPhotons())
	tb.AddRow("messages", repl.Traffic.Messages, geo.Traffic.Messages)
	tb.AddRow("bytes (MB)", float64(repl.Traffic.Bytes)/1e6, float64(geo.Traffic.Bytes)/1e6)
	tb.AddRow("photon flights forwarded", "-", geo.Forwards)
	r.Values["repl-path"] = repl.Stats.MeanPathLength()
	r.Values["geo-path"] = geo.Stats.MeanPathLength()
	r.Values["geo-forwards"] = float64(geo.Forwards)
	r.Values["repl-bytes"] = float64(repl.Traffic.Bytes)
	r.Values["geo-bytes"] = float64(geo.Traffic.Bytes)
	r.Text = tb.String() +
		"same physics, different communication: the geo engine ships photons between\n" +
		"space owners instead of tallies between bin owners, and needs no replicated geometry\n"
	return r, nil
}

// All runs every experiment at default scale and returns them in paper
// order. The bench harness and CLI share this list.
func All() ([]*Result, error) {
	var out []*Result
	add := func(r *Result, err error) error {
		if err != nil {
			return err
		}
		out = append(out, r)
		return nil
	}
	if err := add(Table51(0)); err != nil {
		return nil, err
	}
	if err := add(Table52(0)); err != nil {
		return nil, err
	}
	if err := add(Table53()); err != nil {
		return nil, err
	}
	if err := add(Fig24SphHarm(), nil); err != nil {
		return nil, err
	}
	if err := add(Fig43Kernels(0)); err != nil {
		return nil, err
	}
	if err := add(Fig410Viewpoints(0)); err != nil {
		return nil, err
	}
	if err := add(Fig54Memory(0)); err != nil {
		return nil, err
	}
	if err := add(Fig56to58Shared(0), nil); err != nil {
		return nil, err
	}
	if err := add(Fig59to511Indy(0), nil); err != nil {
		return nil, err
	}
	if err := add(Fig512to514SP2(0), nil); err != nil {
		return nil, err
	}
	if err := add(Fig515GraphOfGraphs(0), nil); err != nil {
		return nil, err
	}
	if err := add(Fig516Visual(0)); err != nil {
		return nil, err
	}
	if err := add(DensityComparison(0)); err != nil {
		return nil, err
	}
	if err := add(RadiosityBaseline()); err != nil {
		return nil, err
	}
	if err := add(GeoDistribution(0)); err != nil {
		return nil, err
	}
	return out, nil
}

// ByID returns the experiment runner for a given table/figure id.
func ByID(id string) (func() (*Result, error), bool) {
	m := map[string]func() (*Result, error){
		"table-5.1":     func() (*Result, error) { return Table51(0) },
		"table-5.2":     func() (*Result, error) { return Table52(0) },
		"table-5.3":     Table53,
		"fig-2.4":       func() (*Result, error) { return Fig24SphHarm(), nil },
		"fig-4.3":       func() (*Result, error) { return Fig43Kernels(0) },
		"fig-4.10":      func() (*Result, error) { return Fig410Viewpoints(0) },
		"fig-5.4":       func() (*Result, error) { return Fig54Memory(0) },
		"fig-5.6-5.8":   func() (*Result, error) { return Fig56to58Shared(0), nil },
		"fig-5.9-5.11":  func() (*Result, error) { return Fig59to511Indy(0), nil },
		"fig-5.12-5.14": func() (*Result, error) { return Fig512to514SP2(0), nil },
		"fig-5.15":      func() (*Result, error) { return Fig515GraphOfGraphs(0), nil },
		"fig-5.16":      func() (*Result, error) { return Fig516Visual(0) },
		"density":       func() (*Result, error) { return DensityComparison(0) },
		"radiosity":     func() (*Result, error) { return RadiosityBaseline() },
		"geo":           func() (*Result, error) { return GeoDistribution(0) },
	}
	fn, ok := m[id]
	return fn, ok
}

// IDs lists all experiment ids in paper order.
func IDs() []string {
	return []string{
		"table-5.1", "table-5.2", "table-5.3",
		"fig-2.4", "fig-4.3", "fig-4.10", "fig-5.4",
		"fig-5.6-5.8", "fig-5.9-5.11", "fig-5.12-5.14", "fig-5.15", "fig-5.16",
		"density", "radiosity", "geo",
	}
}
