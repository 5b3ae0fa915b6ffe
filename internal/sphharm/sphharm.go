// Package sphharm reproduces the extended-radiosity critique of chapter 2
// (Figure 2.4): representing a specular reflection spike with a truncated
// spherical-harmonic (Legendre) series rings near the spike and undershoots
// below zero, even at 30 terms — the reason the dissertation rejects
// Sillion-style directional radiosity in favour of adaptive histogramming.
package sphharm

import "math"

// LegendreP evaluates the Legendre polynomial P_n(x) via the three-term
// recurrence.
func LegendreP(n int, x float64) float64 {
	switch n {
	case 0:
		return 1
	case 1:
		return x
	}
	pPrev, p := 1.0, x
	for k := 2; k <= n; k++ {
		pPrev, p = p, ((2*float64(k)-1)*x*p-(float64(k)-1)*pPrev)/float64(k)
	}
	return p
}

// SpikeCoefficients returns the Legendre expansion coefficients of the
// specular spike: a unit-height rectangular pulse of half-width w centred
// at x0 on [-1, 1] (x is the deviation from the specular angle, as in
// Figure 2.4). Coefficients are computed by numeric quadrature.
func SpikeCoefficients(terms int, x0, w float64, quadSteps int) []float64 {
	if quadSteps < 64 {
		quadSteps = 64
	}
	coef := make([]float64, terms)
	h := 2.0 / float64(quadSteps)
	for n := 0; n < terms; n++ {
		var integral float64
		for i := 0; i < quadSteps; i++ {
			x := -1 + (float64(i)+0.5)*h
			if math.Abs(x-x0) <= w {
				integral += LegendreP(n, x) * h
			}
		}
		coef[n] = (2*float64(n) + 1) / 2 * integral
	}
	return coef
}

// Eval evaluates the truncated series at x.
func Eval(coef []float64, x float64) float64 {
	var sum float64
	for n, c := range coef {
		sum += c * LegendreP(n, x)
	}
	return sum
}

// Spike returns the true pulse value at x.
func Spike(x, x0, w float64) float64 {
	if math.Abs(x-x0) <= w {
		return 1
	}
	return 0
}

// Analysis quantifies the truncation artefacts across a sample grid.
type Analysis struct {
	Terms        int
	MaxOvershoot float64 // series max above the true spike height
	MaxUndershot float64 // most negative series value (true function is >= 0)
	RMSError     float64
	PeakValue    float64 // reconstructed height at the spike centre
}

// Analyze samples the truncated reconstruction on `samples` points.
func Analyze(terms int, x0, w float64, samples int) Analysis {
	coef := SpikeCoefficients(terms, x0, w, 4096)
	a := Analysis{Terms: terms}
	var sumSq float64
	for i := 0; i < samples; i++ {
		x := -1 + 2*(float64(i)+0.5)/float64(samples)
		got := Eval(coef, x)
		want := Spike(x, x0, w)
		if got > 1 && got-1 > a.MaxOvershoot {
			a.MaxOvershoot = got - 1
		}
		if got < 0 && -got > a.MaxUndershot {
			a.MaxUndershot = -got
		}
		d := got - want
		sumSq += d * d
	}
	a.RMSError = math.Sqrt(sumSq / float64(samples))
	a.PeakValue = Eval(coef, x0)
	return a
}

// Series returns (x, reconstruction) pairs for plotting Figure 2.4.
func Series(terms int, x0, w float64, samples int) (xs, ys []float64) {
	coef := SpikeCoefficients(terms, x0, w, 4096)
	xs = make([]float64, samples)
	ys = make([]float64, samples)
	for i := 0; i < samples; i++ {
		x := -1 + 2*(float64(i)+0.5)/float64(samples)
		xs[i] = x
		ys[i] = Eval(coef, x)
	}
	return xs, ys
}
