package sampler

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/vecmath"
)

func TestShirleyUnitLength(t *testing.T) {
	r := rng.New(1)
	for i := 0; i < 10000; i++ {
		d := ShirleyDirection(r)
		if math.Abs(d.Len()-1) > 1e-9 {
			t.Fatalf("non-unit direction %v", d)
		}
		if d.Z < 0 {
			t.Fatalf("direction below hemisphere: %v", d)
		}
	}
}

func TestGustafsonUnitLength(t *testing.T) {
	r := rng.New(2)
	for i := 0; i < 10000; i++ {
		d := GustafsonDirection(r)
		if math.Abs(d.Len()-1) > 1e-9 {
			t.Fatalf("non-unit direction %v", d)
		}
		if d.Z < 0 {
			t.Fatalf("direction below hemisphere: %v", d)
		}
	}
}

// cosineMoments returns the sample mean of z and of z^2 for a direction
// sampler. For a cosine-weighted hemisphere, E[z] = 2/3 and E[z^2] = 1/2.
func cosineMoments(t *testing.T, sample func() vecmath.Vec3, n int) (meanZ, meanZ2 float64) {
	t.Helper()
	var sz, sz2 float64
	for i := 0; i < n; i++ {
		d := sample()
		sz += d.Z
		sz2 += d.Z * d.Z
	}
	return sz / float64(n), sz2 / float64(n)
}

func TestShirleyIsCosineWeighted(t *testing.T) {
	r := rng.New(3)
	meanZ, meanZ2 := cosineMoments(t, func() vecmath.Vec3 { return ShirleyDirection(r) }, 200000)
	if math.Abs(meanZ-2.0/3) > 0.005 {
		t.Errorf("E[z] = %v, want 2/3", meanZ)
	}
	if math.Abs(meanZ2-0.5) > 0.005 {
		t.Errorf("E[z^2] = %v, want 1/2", meanZ2)
	}
}

func TestGustafsonIsCosineWeighted(t *testing.T) {
	r := rng.New(4)
	meanZ, meanZ2 := cosineMoments(t, func() vecmath.Vec3 { return GustafsonDirection(r) }, 200000)
	if math.Abs(meanZ-2.0/3) > 0.005 {
		t.Errorf("E[z] = %v, want 2/3", meanZ)
	}
	if math.Abs(meanZ2-0.5) > 0.005 {
		t.Errorf("E[z^2] = %v, want 1/2", meanZ2)
	}
}

func TestKernelsAgreeInDistribution(t *testing.T) {
	// The paper asserts both methods generate the same emission
	// distribution. Compare the r^2 = x^2+y^2 histograms (r^2 is uniform on
	// [0,1] for a Lambertian distribution) with a two-sample chi-square.
	const n, cells = 100000, 10
	var ha, hb [cells]int
	ra, rb := rng.New(5), rng.New(6)
	for i := 0; i < n; i++ {
		da := ShirleyDirection(ra)
		db := GustafsonDirection(rb)
		ia := int((da.X*da.X + da.Y*da.Y) * cells)
		ib := int((db.X*db.X + db.Y*db.Y) * cells)
		if ia >= cells {
			ia = cells - 1
		}
		if ib >= cells {
			ib = cells - 1
		}
		ha[ia]++
		hb[ib]++
	}
	var chi2 float64
	for i := 0; i < cells; i++ {
		a, b := float64(ha[i]), float64(hb[i])
		if a+b > 0 {
			d := a - b
			chi2 += d * d / (a + b)
		}
	}
	// 9 dof, p=0.001 critical value = 27.9.
	if chi2 > 27.9 {
		t.Fatalf("kernels disagree: chi-square = %v", chi2)
	}
}

func TestShirleyRSquaredUniform(t *testing.T) {
	// For cosine-weighted sampling, r^2 ~ Uniform[0,1]: check the mean.
	r := rng.New(7)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		d := ShirleyDirection(r)
		sum += d.X*d.X + d.Y*d.Y
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("E[r^2] = %v, want 0.5", mean)
	}
}

func TestAzimuthUniform(t *testing.T) {
	r := rng.New(8)
	const n, cells = 100000, 8
	var counts [cells]int
	for i := 0; i < n; i++ {
		d := GustafsonDirection(r)
		theta := math.Atan2(d.Y, d.X) + math.Pi
		idx := int(theta / (2 * math.Pi) * cells)
		if idx >= cells {
			idx = cells - 1
		}
		counts[idx]++
	}
	expect := float64(n) / cells
	for i, c := range counts {
		if math.Abs(float64(c)-expect) > 5*math.Sqrt(expect) {
			t.Errorf("azimuth cell %d count %d far from %v", i, c, expect)
		}
	}
}

func TestLimitedDirectionConeAngle(t *testing.T) {
	// With scale s, the maximum polar angle is asin(s).
	r := rng.New(9)
	for _, scale := range []float64{1, 0.5, 0.1, SunScale} {
		maxSin := 0.0
		for i := 0; i < 20000; i++ {
			d := LimitedDirection(r, scale)
			if s := math.Sqrt(d.X*d.X + d.Y*d.Y); s > maxSin {
				maxSin = s
			}
		}
		if maxSin > scale+1e-12 {
			t.Errorf("scale %v: sin(theta) reached %v", scale, maxSin)
		}
		// The cone should also be substantially filled.
		if maxSin < scale*0.9 {
			t.Errorf("scale %v: cone underfilled, max sin %v", scale, maxSin)
		}
	}
}

func TestLimitedDirectionZeroScaleIsBeam(t *testing.T) {
	r := rng.New(10)
	d := LimitedDirection(r, 0)
	if d != (vecmath.Vec3{Z: 1}) {
		t.Fatalf("zero scale should emit straight along +Z, got %v", d)
	}
}

func TestSunScaleMatchesQuarterDegree(t *testing.T) {
	// The paper's 0.005 corresponds to a cone half-angle near 0.25 degrees.
	theta := math.Asin(SunScale) * 180 / math.Pi
	if theta < 0.2 || theta > 0.35 {
		t.Fatalf("sun cone half-angle = %v degrees", theta)
	}
}

func TestUniformSphereMeanZero(t *testing.T) {
	r := rng.New(12)
	var sum vecmath.Vec3
	const n = 100000
	for i := 0; i < n; i++ {
		sum = sum.Add(UniformSphere(r))
	}
	mean := sum.Scale(1.0 / n)
	if mean.Len() > 0.02 {
		t.Fatalf("mean direction %v not near zero", mean)
	}
}

func TestCylindricalRoundTrip(t *testing.T) {
	r := rng.New(14)
	for i := 0; i < 10000; i++ {
		d := GustafsonDirection(r)
		r2, theta := CylindricalCoords(d)
		back := DirectionFromCylindrical(r2, theta)
		if !back.NearEqual(d, 1e-9) {
			t.Fatalf("round trip failed: %v -> (%v,%v) -> %v", d, r2, theta, back)
		}
	}
}

func TestCylindricalRanges(t *testing.T) {
	r := rng.New(15)
	for i := 0; i < 10000; i++ {
		r2, theta := CylindricalCoords(ShirleyDirection(r))
		if r2 < 0 || r2 > 1 {
			t.Fatalf("r2 out of range: %v", r2)
		}
		if theta < 0 || theta >= 2*math.Pi {
			t.Fatalf("theta out of range: %v", theta)
		}
	}
}

func TestCylindricalStraightUp(t *testing.T) {
	r2, _ := CylindricalCoords(vecmath.Vec3{Z: 1})
	if r2 != 0 {
		t.Fatalf("straight-up direction has r2 = %v", r2)
	}
}

func TestExpectedGustafsonFlops(t *testing.T) {
	got := ExpectedGustafsonFlops()
	// The paper derives 16.55 + 5 = 21.55, reported as 22 operations.
	if math.Abs(got-21.55) > 0.05 {
		t.Fatalf("expected flops = %v, want about 21.55", got)
	}
	if float64(FlopsShirley)/got < 1.5 {
		t.Fatalf("Shirley/Gustafson flop ratio %v should exceed 1.5", float64(FlopsShirley)/got)
	}
}

func BenchmarkShirleyDirection(b *testing.B) {
	r := rng.New(1)
	var sink vecmath.Vec3
	for i := 0; i < b.N; i++ {
		sink = ShirleyDirection(r)
	}
	_ = sink
}

func BenchmarkGustafsonDirection(b *testing.B) {
	r := rng.New(1)
	var sink vecmath.Vec3
	for i := 0; i < b.N; i++ {
		sink = GustafsonDirection(r)
	}
	_ = sink
}
