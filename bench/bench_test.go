package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestNearestRankAndTailSelection(t *testing.T) {
	s := make([]float64, 200)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.50, 100}, {0.95, 190}, {0.99, 198}, {1, 200}, {0, 1}} {
		if got := nearestRank(s, c.q); got != c.want {
			t.Errorf("nearestRank(1..200, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := nearestRank(nil, 0.5); got != 0 {
		t.Errorf("nearestRank of nothing = %v", got)
	}
	// The highest ladder percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{1200, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.90}, {100, 0.90}, {99, 0.75}, {40, 0.75}, {39, 0.50}, {20, 0.50}, {3, 0.50}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(1,2,3) = %v %v %v", q1, q2, q3)
	}
	if got := spreadShare([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spreadShare(1..10) = %v, want 1", got)
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 || median([]float64{5}) != 5 || median(nil) != 0 {
		t.Error("median is off")
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "loadgen.request", StartNs: 0, EndNs: ms(100)},
		{ID: 2, Parent: 1, Name: "route.handler", StartNs: ms(10), EndNs: ms(90)},
		{ID: 3, Parent: 2, Name: "server.handler", StartNs: ms(20), EndNs: ms(70)},
		// Two overlapping children, one running past its parent's end:
		// covered once, clipped to the parent.
		{ID: 4, Name: "engine.run.shared", StartNs: ms(200), EndNs: ms(300)},
		{ID: 5, Parent: 4, Name: "x.a", StartNs: ms(210), EndNs: ms(260)},
		{ID: 6, Parent: 4, Name: "x.b", StartNs: ms(240), EndNs: ms(320)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 20 * time.Millisecond, 2: 30 * time.Millisecond, 3: 50 * time.Millisecond,
		4: 10 * time.Millisecond, 5: 50 * time.Millisecond, 6: 80 * time.Millisecond,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	// A request's layers add up to the request.
	if self[1]+self[2]+self[3] != spans[0].duration() {
		t.Error("nested self times do not sum to the root span")
	}
	byName := selfByName(spans, self)
	if len(byName["route.handler"]) != 1 || byName["route.handler"][0] != 0.03 {
		t.Errorf("selfByName: %v", byName["route.handler"])
	}

	// A nil tracer records nothing and hands out id 0.
	var off *tracer
	if id := off.start("x", 0); id != 0 {
		t.Errorf("nil tracer start = %d", id)
	}
	off.end(0)
	if off.finished() != nil {
		t.Error("nil tracer has spans")
	}
	on := newTracer("run")
	a := on.start("a.x", 0)
	on.start("b.y", a) // never ended: not reported
	on.end(a)
	if got := on.finished(); len(got) != 1 || got[0].Name != "a.x" || got[0].Run != "run" {
		t.Errorf("finished = %+v", got)
	}
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		w = tiny(w)
		a, err := makeInputs(w, 7, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makeInputs(w, 7, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.scenes, b.scenes) || !reflect.DeepEqual(a.shots, b.shots) ||
			!reflect.DeepEqual(a.walk, b.walk) || !reflect.DeepEqual(a.probeOrder, b.probeOrder) ||
			!reflect.DeepEqual(a.fullOrder, b.fullOrder) {
			t.Errorf("%s: the same seed gave different inputs", w.Name)
		}
		c, err := makeInputs(w, 8, 10)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.shots, c.shots) {
			t.Errorf("%s: another seed gave the same cameras", w.Name)
		}
		slices := slicesFor(10)
		if len(a.walk) != slices*w.WalkSteps || len(a.probeOrder) != slices*w.ProbeArrivals || len(a.fullOrder) != slices*w.FullArrivals {
			t.Errorf("%s: schedule lengths %d %d %d", w.Name, len(a.walk), len(a.probeOrder), len(a.fullOrder))
		}
		for _, sh := range a.shots {
			if !a.built[sh.sceneIdx].Geom.Bounds().Contains(sh.camera().Eye) {
				t.Errorf("%s: camera outside its scene", w.Name)
			}
		}
	}
}

func TestChurnWalkPredictsAnLRU(t *testing.T) {
	const n, scenes, cache = 400, 12, 4
	steps := churnWalk(rand.New(rand.NewSource(3)), n, scenes, cache)
	if !reflect.DeepEqual(steps, churnWalk(rand.New(rand.NewSource(3)), n, scenes, cache)) {
		t.Fatal("churn walk is not a function of its seed")
	}
	// Replay against an independent LRU: every prediction must hold.
	var lru []int
	misses, distinct := 0, map[int]bool{}
	for i, st := range steps {
		at := -1
		for j, s := range lru {
			if s == st.Scene {
				at = j
			}
		}
		if (at >= 0) != st.Hit {
			t.Fatalf("step %d: scene %d predicted hit=%v, LRU says %v", i, st.Scene, st.Hit, at >= 0)
		}
		if at >= 0 {
			lru = append(lru[:at], lru[at+1:]...)
		} else {
			misses++
		}
		lru = append([]int{st.Scene}, lru...)
		if len(lru) > cache {
			lru = lru[:cache]
		}
		distinct[st.Scene] = true
		if st.Fresh != (i == 0) {
			t.Fatalf("step %d: fresh=%v", i, st.Fresh)
		}
	}
	if share := float64(misses) / n; share < 0.4 || share > 0.6 {
		t.Errorf("%.0f%% of the walk misses, want about half", 100*share)
	}
	if len(distinct) != scenes {
		t.Errorf("walk visits %d of %d scenes", len(distinct), scenes)
	}

	cold := coldWalk(10, 2, 3)
	want := []walkStep{
		{0, true, false}, {0, false, true}, {0, false, true}, {0, false, true},
		{1, false, false}, {1, false, true}, {1, false, true}, {1, false, true},
		{0, true, false}, {0, false, true},
	}
	if !reflect.DeepEqual(cold, want) {
		t.Errorf("coldWalk = %v", cold)
	}
}

func TestVerdicts(t *testing.T) {
	seq := func(base, step float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = base + step*float64(i%5)
		}
		return out
	}
	a := seq(100, 1, 10) // median 102, IQR small
	cases := []struct {
		name   string
		b      []float64
		higher bool
		bound  float64
		want   string
	}{
		{"clear gain", seq(120, 1, 10), true, 0.1, "better"},
		{"clear loss by pairs", seq(90, 1, 10), true, 0.25, "worse"},
		{"loss beyond bound, few pairs", seq(80, 1, 4), true, 0.1, "worse"},
		{"gain with too few pairs", seq(120, 1, 4), true, 0.1, "same"},
		{"no change", seq(100.5, 1, 10), true, 0.1, "same"},
		{"lower is better", seq(80, 1, 10), false, 0.1, "better"},
	}
	for _, c := range cases {
		if got := verdict(a[:len(c.b)], c.b, c.higher, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	// A parent whose own spread exceeds the bound cannot show "same".
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	if got := verdict(noisy, noisy, true, 0.05); got != "unresolved" {
		t.Errorf("noisy parent: %s, want unresolved", got)
	}
	if got := verdict(nil, nil, true, 0.1); got != "unresolved" {
		t.Errorf("no pairs: %s", got)
	}
}

// tiny shrinks a workload to a smoke test: same topology, same phases, a
// few hundred photons and a handful of requests.
func tiny(w workload) workload {
	w.Photons = 800
	w.Top.SimPhotons = 800
	if w.SolveScene == "gen:grid/seed=1/patches=10000" {
		w.SolveScene = "gen:grid/seed=1/patches=100"
	}
	if w.OfficeScenes > 5 {
		w.OfficeScenes = 5
	}
	w.WalkSteps = min(w.WalkSteps, 6)
	w.HitsPerOpen = min(w.HitsPerOpen, 2)
	w.ProbeArrivals, w.FullArrivals = 6, 3
	w.ProbeRate, w.FullRate = 500, 100
	w.ProbeW, w.ProbeH, w.FullW, w.FullH = 48, 36, 64, 48
	return w
}

// TestWorkloadsSmoke runs every workload at toy size, untraced and traced,
// and holds the output to BENCHMARK.json: the same workloads, every
// end-to-end metric from the untraced run, every per-layer metric from the
// traced one, nothing failed, no end-to-end metric zero.
func TestWorkloadsSmoke(t *testing.T) {
	defer func(d time.Duration) { loopTime = d }(loopTime)
	loopTime = 2 * time.Millisecond
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &decl); err != nil {
		t.Fatal(err)
	}
	names := func(ds []declared) []string {
		out := make([]string, len(ds))
		for i, d := range ds {
			out[i] = d.Name
		}
		sort.Strings(out)
		return out
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.Name || decl.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q / %q", i, decl.Workloads[i].Name, decl.Workloads[i].Why)
		}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(tiny(w), 5, 2*sliceSeconds, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if len(res.Problems) > 0 || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d failed of %d: %v", w.Name, traced, res.Failed, res.Attempted, res.Problems)
			}
			want := names(decl.EndToEnd)
			if traced {
				want = names(decl.PerLayer)
				if len(res.Spans) == 0 {
					t.Errorf("%s: a traced run kept no spans", w.Name)
				}
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v", w.Name, name, m.Value)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", w.Name, name, m.Value)
				}
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: metrics\n got %v\nwant %v", w.Name, traced, got, want)
			}
			if res.Claim != nil {
				t.Errorf("%s: the benchmark claims %q", w.Name, *res.Claim)
			}
		}
	}
}
