package view

import (
	"bytes"
	"image"
	"image/png"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/bintree"
)

// tableGammas are the gammas the exactness test pins: linear, the common
// display gammas, and a steep one.
var tableGammas = []float64{1, 1.8, 2.2, 2.4, 3.3}

// TestToneTableExact pins toneTable to toneChannel byte for byte: around
// every threshold and both edges of its guard band (±200 ULPs each), on
// zero, subnormal, huge, infinite and NaN inputs, and over 10⁷ seeded
// random (radiance, exposure) draws (10⁶ with -short). The threshold
// sweeps are where math.Pow is not monotone; with the guard band removed
// they fail.
func TestToneTableExact(t *testing.T) {
	draws := 10_000_000
	if testing.Short() {
		draws = 1_000_000
	}
	for _, gamma := range tableGammas {
		tab := toneTableFor(gamma)
		if math.IsInf(tab.qmin, 1) {
			t.Fatalf("gamma %v: no table built", gamma)
		}
		bad := 0
		check := func(q float64) {
			if got, want := tab.byteOf(q), gammaByte(q, gamma); got != want && bad < 10 {
				bad++
				t.Errorf("gamma %v: q %v (bits %#x) → %d, gammaByte %d", gamma, q, math.Float64bits(q), got, want)
			}
		}
		sweep := func(q float64) {
			b := math.Float64bits(q)
			for d := uint64(0); d <= 200; d++ {
				check(math.Float64frombits(b + d))
				if d <= b {
					check(math.Float64frombits(b - d))
				}
			}
		}
		for k := range tab.lo {
			sweep((tab.lo[k] + tab.hi[k]) / 2) // the threshold itself
			sweep(tab.lo[k])
			sweep(tab.hi[k])
		}

		special := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1e-310, 0x1p-1022,
			1e-300, 1e-9, 0.5, 1, 1e300, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), -1}
		for _, x := range special {
			for _, e := range special {
				if got, want := tab.tone(x, e), toneChannel(x, e, gamma); got != want {
					t.Errorf("gamma %v: tone(%v, exposure %v) = %d, toneChannel %d", gamma, x, e, got, want)
				}
			}
		}

		rng := rand.New(rand.NewPCG(1, math.Float64bits(gamma)))
		for i := 0; i < draws/len(tableGammas); i++ {
			x := math.Pow(10, rng.Float64()*16-10) // 1e-10 … 1e6
			e := math.Pow(10, rng.Float64()*6-3)   // 1e-3 … 1e3
			if got, want := tab.tone(x, e), toneChannel(x, e, gamma); got != want && bad < 10 {
				bad++
				t.Errorf("gamma %v: tone(%v, exposure %v) = %d, toneChannel %d", gamma, x, e, got, want)
			}
		}
	}
}

// TestToneTableUncoveredGammas: gammas outside the table's proven range
// (and NaN) still tone-map exactly, through toneChannel.
func TestToneTableUncoveredGammas(t *testing.T) {
	for _, gamma := range []float64{2 * maxTableGamma, math.Inf(1), math.NaN()} {
		tab := toneTableFor(gamma)
		for _, x := range []float64{1e-6, 0.01, 1, 50} {
			if got, want := tab.tone(x, 1), toneChannel(x, 1, gamma); got != want {
				t.Errorf("gamma %v: tone(%v) = %d, toneChannel %d", gamma, x, got, want)
			}
		}
	}
}

// testRadiance is a deterministic w×h radiance frame spanning black
// through deep overexposure, with exact zeros.
func testRadiance(w, h int) []bintree.RGB {
	rng := rand.New(rand.NewPCG(7, 7))
	rad := make([]bintree.RGB, w*h)
	for i := range rad {
		if i%11 == 0 {
			continue
		}
		v := math.Pow(10, rng.Float64()*7-4)
		rad[i] = bintree.RGB{R: v, G: v * rng.Float64(), B: v * 2 * rng.Float64()}
	}
	return rad
}

// TestTonemapConcurrentFirstUse: eight goroutines tone-map with a gamma
// nothing else uses, so all race to build its table. Run under -race;
// every frame must equal toneChannel pixel by pixel.
func TestTonemapConcurrentFirstUse(t *testing.T) {
	const w, h, gamma = 40, 30, 2.345
	rad := testRadiance(w, h)
	exposure := autoExposure(rad, 0)
	toneTablesMu.Lock()
	delete(toneTables, math.Float64bits(gamma)) // first use again under -count
	toneTablesMu.Unlock()
	var frames [8]*image.RGBA
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range frames {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			frames[i] = Tonemap(rad, w, h, 0, gamma)
		}()
	}
	close(start)
	wg.Wait()
	for i, img := range frames {
		for p, r := range rad {
			want := [4]uint8{toneChannel(r.R, exposure, gamma), toneChannel(r.G, exposure, gamma),
				toneChannel(r.B, exposure, gamma), 255}
			if got := [4]uint8(img.Pix[4*p : 4*p+4]); got != want {
				t.Fatalf("goroutine %d pixel %d: %v, toneChannel %v", i, p, got, want)
			}
		}
	}
}

// TestTonemapAllocatesOnlyImage: with the table built, a frame allocates
// exactly what image.NewRGBA does.
func TestTonemapAllocatesOnlyImage(t *testing.T) {
	const w, h = 64, 48
	rad := testRadiance(w, h)
	Tonemap(rad, w, h, 0, 2.2) // build the table
	img := testing.AllocsPerRun(20, func() { image.NewRGBA(image.Rect(0, 0, w, h)) })
	got := testing.AllocsPerRun(20, func() { Tonemap(rad, w, h, 0, 2.2) })
	if got != img {
		t.Errorf("warm Tonemap allocates %v times per frame, image.NewRGBA %v", got, img)
	}
}

// TestWritePNGMatchesEncode: the pooled encoder's bytes equal png.Encode's
// across sizes, opaque and translucent, with encodes sharing the pool from
// eight goroutines (run under -race).
func TestWritePNGMatchesEncode(t *testing.T) {
	var imgs []*image.RGBA
	var want [][]byte
	for _, size := range [][2]int{{1, 1}, {7, 3}, {64, 48}, {160, 120}} {
		for _, opaque := range []bool{true, false} {
			img := Tonemap(testRadiance(size[0], size[1]), size[0], size[1], 0, 2.2)
			if !opaque {
				img.Pix[3] = 128
			}
			var buf bytes.Buffer
			if err := png.Encode(&buf, img); err != nil {
				t.Fatal(err)
			}
			imgs = append(imgs, img)
			want = append(want, buf.Bytes())
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range imgs {
				j := (i + g) % len(imgs)
				var buf bytes.Buffer
				if err := WritePNG(&buf, imgs[j]); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(buf.Bytes(), want[j]) {
					t.Errorf("goroutine %d: image %d (%v) differs from png.Encode", g, j, imgs[j].Bounds())
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkTonemap measures the second render pass on a 320×240 frame.
func BenchmarkTonemap(b *testing.B) {
	const w, h = 320, 240
	rad := testRadiance(w, h)
	Tonemap(rad, w, h, 0, 2.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Tonemap(rad, w, h, 0, 2.2)
	}
}

// BenchmarkWritePNG measures encoding a 160×120 probe-sized frame.
func BenchmarkWritePNG(b *testing.B) {
	img := Tonemap(testRadiance(160, 120), 160, 120, 0, 2.2)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WritePNG(&buf, img); err != nil {
			b.Fatal(err)
		}
	}
}
