package bintree

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sampler"
)

// randPoint draws a uniform point in the 4-D domain.
func randPoint(r *rng.Source) Point {
	return Point{
		S: r.Float64(), T: r.Float64(),
		R2: r.Float64(), Theta: r.Float64() * 2 * math.Pi,
	}
}

// lambertPoint draws a point as a Lambertian reflection at a uniform surface
// position would produce: (s,t) uniform, direction cosine-weighted.
func lambertPoint(r *rng.Source) Point {
	d := sampler.GustafsonDirection(r)
	r2, th := sampler.CylindricalCoords(d)
	return Point{S: r.Float64(), T: r.Float64(), R2: r2, Theta: th}
}

func white() RGB { return RGB{1, 1, 1} }

func TestNewTreeSingleRootLeaf(t *testing.T) {
	tr := NewTree(DefaultConfig())
	if tr.Leaves() != 1 || tr.Nodes() != 1 {
		t.Fatalf("leaves=%d nodes=%d", tr.Leaves(), tr.Nodes())
	}
	if !tr.Leaf(Point{0.5, 0.5, 0.5, math.Pi}).IsLeaf() {
		t.Fatal("root not leaf")
	}
}

func TestRootDomainSpansHemisphereTimesPatch(t *testing.T) {
	tr := NewTree(DefaultConfig())
	root := tr.Leaf(Point{})
	if lo, _ := root.Bounds(AxisS); lo != 0 {
		t.Errorf("s lo = %v", lo)
	}
	if _, hi := root.Bounds(AxisTheta); math.Abs(hi-2*math.Pi) > 1e-15 {
		t.Errorf("theta hi = %v", hi)
	}
	// Full patch, full hemisphere: measure = 1*1*1*2pi; proj solid angle = pi.
	if m := root.Measure4(); math.Abs(m-2*math.Pi) > 1e-12 {
		t.Errorf("measure = %v", m)
	}
	if o := root.ProjSolidAngle(); math.Abs(o-math.Pi) > 1e-12 {
		t.Errorf("proj solid angle = %v, want pi", o)
	}
}

func TestUniformInputSplitsLittle(t *testing.T) {
	tr := NewTree(DefaultConfig())
	r := rng.New(1)
	for i := 0; i < 50000; i++ {
		tr.Add(lambertPoint(r), white())
	}
	if tr.Leaves() > 60 {
		t.Fatalf("uniform Lambertian input split into %d leaves", tr.Leaves())
	}
}

func TestConcentratedInputSplitsALot(t *testing.T) {
	// A specular-like spike: all photons in a tiny (s,t,r2,theta) cell.
	tr := NewTree(DefaultConfig())
	r := rng.New(2)
	for i := 0; i < 50000; i++ {
		p := Point{
			S:  0.1 + 0.01*r.Float64(),
			T:  0.9 + 0.01*r.Float64(),
			R2: 0.5 + 0.01*r.Float64(),
			// Theta concentrated too.
			Theta: 1 + 0.01*r.Float64(),
		}
		tr.Add(p, white())
	}
	if tr.Leaves() < 30 {
		t.Fatalf("spike input produced only %d leaves", tr.Leaves())
	}
	// And far more than the same budget of uniform input produces.
	uni := NewTree(DefaultConfig())
	for i := 0; i < 50000; i++ {
		uni.Add(lambertPoint(r), white())
	}
	if tr.Leaves() < 3*uni.Leaves() {
		t.Fatalf("spike (%d leaves) should out-split uniform (%d)", tr.Leaves(), uni.Leaves())
	}
}

func TestMirrorNeedsAngularSubdivision(t *testing.T) {
	// The paper's key qualitative claim: "a purely diffuse surface requires
	// only planar bin subdivisions while a specular surface requires more
	// angular bin subdivisions."
	diffuse := NewTree(DefaultConfig())
	mirror := NewTree(DefaultConfig())
	r := rng.New(3)
	for i := 0; i < 80000; i++ {
		// Diffuse: a spatial illumination gradient (bright on one side),
		// outgoing directions Lambertian.
		p := lambertPoint(r)
		p.S = p.S * p.S
		diffuse.Add(p, white())
		// Mirror: incoming from a few discrete directions reflects into a
		// few discrete outgoing directions, position uniform.
		k := r.Intn(3)
		mirror.Add(Point{
			S: r.Float64(), T: r.Float64(),
			R2:    0.2 + 0.3*float64(k) + 0.002*r.Float64(),
			Theta: 0.5 + 2*float64(k) + 0.002*r.Float64(),
		}, white())
	}
	dc := diffuse.SplitAxisCounts()
	mc := mirror.SplitAxisCounts()
	dAngular := dc[AxisR2] + dc[AxisTheta]
	dPlanar := dc[AxisS] + dc[AxisT]
	mAngular := mc[AxisR2] + mc[AxisTheta]
	if dPlanar == 0 {
		t.Fatal("diffuse gradient produced no planar splits")
	}
	if dAngular > dPlanar {
		t.Fatalf("diffuse surface split angularly (%d) more than planarly (%d)", dAngular, dPlanar)
	}
	if mAngular < 5*dAngular || mAngular < 10 {
		t.Fatalf("mirror angular splits = %d (diffuse %d); expected angular-dominated refinement", mAngular, dAngular)
	}
	if mf := mirror.AngularLeafFraction(); mf < 0.5 {
		t.Fatalf("mirror angular leaf fraction %v unexpectedly low", mf)
	}
}

func TestCountConservationThroughSplits(t *testing.T) {
	tr := NewTree(DefaultConfig())
	r := rng.New(4)
	const n = 30000
	for i := 0; i < n; i++ {
		p := lambertPoint(r)
		p.S *= p.S // skew to force splits
		tr.Add(p, white())
	}
	if got := tr.SumLeafCounts(); got != n {
		t.Fatalf("leaf counts sum to %d, want %d", got, n)
	}
	if tr.Total() != n {
		t.Fatalf("total = %d", tr.Total())
	}
}

func TestCountConservationProperty(t *testing.T) {
	f := func(seed int64, k uint16) bool {
		n := int(k)%3000 + 200
		tr := NewTree(DefaultConfig())
		r := rng.New(seed)
		for i := 0; i < n; i++ {
			p := randPoint(r)
			p.T = p.T * p.T * p.T
			tr.Add(p, white())
		}
		return tr.SumLeafCounts() == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPowerConservationThroughSplits(t *testing.T) {
	tr := NewTree(DefaultConfig())
	r := rng.New(5)
	const n = 20000
	for i := 0; i < n; i++ {
		p := lambertPoint(r)
		p.S = math.Sqrt(p.S)
		tr.Add(p, RGB{0.5, 0.25, 1})
	}
	var sum RGB
	tr.Walk(func(nd *Node) {
		if nd.IsLeaf() {
			sum = sum.Add(nd.Power())
		}
	})
	if math.Abs(sum.R-0.5*n) > 1e-6*n || math.Abs(sum.G-0.25*n) > 1e-6*n || math.Abs(sum.B-float64(n)) > 1e-6*n {
		t.Fatalf("power sum = %+v", sum)
	}
}

func TestLeavesPartitionDomain(t *testing.T) {
	// Any point lands in exactly one leaf; the leaf measures sum to the
	// domain measure.
	tr := NewTree(DefaultConfig())
	r := rng.New(6)
	for i := 0; i < 50000; i++ {
		p := randPoint(r)
		p.R2 = p.R2 * p.R2
		tr.Add(p, white())
	}
	var measure float64
	tr.Walk(func(n *Node) {
		if n.IsLeaf() {
			measure += n.Measure4()
		}
	})
	if math.Abs(measure-2*math.Pi) > 1e-9 {
		t.Fatalf("leaf measures sum to %v, want 2pi", measure)
	}
}

func TestLeafLookupConsistentWithBounds(t *testing.T) {
	tr := NewTree(DefaultConfig())
	r := rng.New(7)
	for i := 0; i < 30000; i++ {
		p := randPoint(r)
		p.S = p.S * p.S
		tr.Add(p, white())
	}
	for i := 0; i < 1000; i++ {
		p := randPoint(r)
		leaf := tr.Leaf(p)
		for a := Axis(0); a < numAxes; a++ {
			lo, hi := leaf.Bounds(a)
			if p.coord(a) < lo || p.coord(a) >= hi {
				// Clamped boundary values may sit exactly at hi; tolerate
				// the closed upper edge of the domain only.
				if p.coord(a) != hi {
					t.Fatalf("point %v outside its leaf on axis %v [%v,%v)", p, a, lo, hi)
				}
			}
		}
	}
}

func TestOutOfRangeClamped(t *testing.T) {
	tr := NewTree(DefaultConfig())
	tr.Add(Point{S: -1, T: 2, R2: 5, Theta: -3}, white())
	tr.Add(Point{S: 1, T: 1, R2: 1, Theta: 2 * math.Pi}, white())
	if tr.Total() != 2 || tr.SumLeafCounts() != 2 {
		t.Fatalf("clamped adds lost: total=%d", tr.Total())
	}
}

func TestMaxDepthRespected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxDepth = 3
	tr := NewTree(cfg)
	r := rng.New(8)
	for i := 0; i < 100000; i++ {
		// Extreme spike to force maximal splitting.
		tr.Add(Point{S: 0.001 * r.Float64(), T: 0.001 * r.Float64(), R2: 0.001 * r.Float64(), Theta: 0.001 * r.Float64()}, white())
	}
	if d := tr.MaxDepth(); d > 3 {
		t.Fatalf("depth %d exceeds max 3", d)
	}
}

func TestSplitChoosesSteepestAxis(t *testing.T) {
	// Gradient only along s: the first split must be on s.
	cfg := DefaultConfig()
	tr := NewTree(cfg)
	r := rng.New(9)
	for tr.Leaves() == 1 {
		tr.Add(Point{S: r.Float64() * 0.4, T: r.Float64(), R2: r.Float64(), Theta: 2 * math.Pi * r.Float64()}, white())
	}
	root := tr.root
	if root.splitAxis != AxisS {
		t.Fatalf("first split on %v, want s", root.splitAxis)
	}
}

func TestRadianceUniformLambertian(t *testing.T) {
	// Emit n photons of total power P uniformly (Lambertian) across one
	// unit-area patch: radiance must be ~P/pi everywhere (the Lambertian
	// relation L = M/pi), with M = P/A.
	f := NewForest(1, DefaultConfig())
	r := rng.New(10)
	const n = 200000
	const totalPower = 3.0
	per := RGB{totalPower / n, totalPower / n, totalPower / n}
	for i := 0; i < n; i++ {
		f.Add(0, lambertPoint(r), per)
	}
	want := totalPower / math.Pi
	for _, pt := range []Point{
		{0.3, 0.3, 0.1, 1}, {0.7, 0.2, 0.5, 4}, {0.5, 0.9, 0.9, 6},
	} {
		got := f.Radiance(0, pt, 1.0)
		if math.Abs(got.R-want) > 0.15*want {
			t.Errorf("radiance at %+v = %v, want about %v", pt, got.R, want)
		}
	}
}

func TestRadianceZeroWhenEmpty(t *testing.T) {
	f := NewForest(2, DefaultConfig())
	if got := f.Radiance(1, Point{0.5, 0.5, 0.5, 1}, 1); got != (RGB{}) {
		t.Fatalf("empty forest radiance = %+v", got)
	}
}

func TestForestTotals(t *testing.T) {
	f := NewForest(3, DefaultConfig())
	r := rng.New(11)
	for i := 0; i < 999; i++ {
		f.Add(i%3, randPoint(r), white())
	}
	if f.TotalPhotons() != 999 {
		t.Fatalf("total photons = %d", f.TotalPhotons())
	}
	counts := f.PhotonCounts()
	if len(counts) != 3 || counts[0] != 333 || counts[1] != 333 || counts[2] != 333 {
		t.Fatalf("photon counts = %v", counts)
	}
	if f.TotalLeaves() < 3 {
		t.Fatalf("total leaves = %d", f.TotalLeaves())
	}
}

func TestMemoryGrowsSublinearly(t *testing.T) {
	// Figure 5.4's qualitative shape: after initial buildup, forest memory
	// grows much more slowly than photon count.
	tr := NewTree(DefaultConfig())
	r := rng.New(12)
	add := func(n int) {
		for i := 0; i < n; i++ {
			p := lambertPoint(r)
			p.S = p.S * p.S
			tr.Add(p, white())
		}
	}
	add(20000)
	m1 := tr.MemoryBytes()
	add(180000) // 10x the photons
	m2 := tr.MemoryBytes()
	if ratio := float64(m2) / float64(m1); ratio > 6 {
		t.Fatalf("10x photons grew memory %.1fx; expected sub-linear", ratio)
	}
}

func TestAxisString(t *testing.T) {
	names := map[Axis]string{AxisS: "s", AxisT: "t", AxisR2: "r2", AxisTheta: "theta"}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("Axis(%d).String() = %q", a, a.String())
		}
	}
}
