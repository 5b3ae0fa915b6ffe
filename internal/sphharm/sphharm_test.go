package sphharm

import (
	"math"
	"testing"
)

func TestLegendreKnownValues(t *testing.T) {
	cases := []struct {
		n    int
		x    float64
		want float64
	}{
		{0, 0.3, 1},
		{1, 0.3, 0.3},
		{2, 0.5, 0.5*3*0.25 - 0.5}, // (3x^2-1)/2 = -0.125
		{3, 1, 1},                  // P_n(1) = 1
		{7, 1, 1},
		{4, -1, 1},  // P_even(-1) = 1
		{5, -1, -1}, // P_odd(-1) = -1
	}
	for _, c := range cases {
		if got := LegendreP(c.n, c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P_%d(%v) = %v, want %v", c.n, c.x, got, c.want)
		}
	}
}

func TestLegendreOrthogonality(t *testing.T) {
	// ∫ P_m P_n dx = 0 for m != n; = 2/(2n+1) for m == n.
	const steps = 20000
	h := 2.0 / steps
	inner := func(m, n int) float64 {
		var sum float64
		for i := 0; i < steps; i++ {
			x := -1 + (float64(i)+0.5)*h
			sum += LegendreP(m, x) * LegendreP(n, x) * h
		}
		return sum
	}
	if v := inner(2, 5); math.Abs(v) > 1e-6 {
		t.Errorf("<P2,P5> = %v, want 0", v)
	}
	if v := inner(3, 3); math.Abs(v-2.0/7) > 1e-6 {
		t.Errorf("<P3,P3> = %v, want 2/7", v)
	}
}

func TestReconstructionConvergesInRMS(t *testing.T) {
	// More terms = lower RMS error (Parseval), even though ringing remains.
	a10 := Analyze(10, 0, 0.05, 2000)
	a30 := Analyze(30, 0, 0.05, 2000)
	a60 := Analyze(60, 0, 0.05, 2000)
	if !(a60.RMSError < a30.RMSError && a30.RMSError < a10.RMSError) {
		t.Fatalf("RMS not decreasing: %v, %v, %v", a10.RMSError, a30.RMSError, a60.RMSError)
	}
}

func TestThirtyTermsStillRings(t *testing.T) {
	// Figure 2.4's message: at 30 terms the reconstruction of a narrow
	// spike still rings visibly (overshoot) and dips below zero.
	a := Analyze(30, 0, 0.05, 2000)
	if a.MaxUndershot < 0.02 {
		t.Fatalf("30-term reconstruction never goes negative (undershoot %v); Figure 2.4 shows dips below 0", a.MaxUndershot)
	}
	if a.PeakValue > 0.95 {
		t.Fatalf("30-term peak %v nearly exact; the paper shows the spike badly underresolved", a.PeakValue)
	}
}

func TestRingingPersistsAwayFromSpike(t *testing.T) {
	// Ringing near the spike does not die out with modest term increases.
	a30 := Analyze(30, 0, 0.05, 2000)
	a45 := Analyze(45, 0, 0.05, 2000)
	if a45.MaxUndershot < a30.MaxUndershot/4 {
		t.Fatalf("undershoot vanished too fast: %v -> %v", a30.MaxUndershot, a45.MaxUndershot)
	}
}

func TestCoefficientsIntegrateSpikeMass(t *testing.T) {
	// c_0 = (1/2)∫spike = w (half-width w, height 1 → mass 2w; c0 = mass/2).
	coef := SpikeCoefficients(20, 0.2, 0.1, 8192)
	if math.Abs(coef[0]-0.1) > 1e-3 {
		t.Fatalf("c0 = %v, want 0.1", coef[0])
	}
}

func TestSeriesShape(t *testing.T) {
	xs, ys := Series(30, 0, 0.05, 500)
	if len(xs) != 500 || len(ys) != 500 {
		t.Fatalf("series lengths %d, %d", len(xs), len(ys))
	}
	// Maximum should be near the spike centre.
	maxI := 0
	for i, y := range ys {
		if y > ys[maxI] {
			maxI = i
		}
	}
	if math.Abs(xs[maxI]) > 0.1 {
		t.Fatalf("series peak at x=%v, want near 0", xs[maxI])
	}
}

func TestSpike(t *testing.T) {
	if Spike(0.2, 0.2, 0.05) != 1 || Spike(0.3, 0.2, 0.05) != 0 {
		t.Fatal("spike indicator wrong")
	}
}
