package view

import (
	"image"
	"math"
	"sync"

	"repro/internal/bintree"
	"repro/internal/vecmath"
)

// Tonemap converts a raw radiance buffer (row-major, width×height) into the
// displayed image: automatic exposure when exposure is 0 (0.5·n/Σlum over
// the lit pixels), then per-channel Reinhard tone mapping and display gamma
// (0 selects the 2.2 default). It is the only radiance-to-bytes map: Render's
// second pass and the probe renderer both call it, so the two qualities
// differ only in the radiance they feed it.
//
// Every byte equals toneChannel's — the per-channel math.Pow — exactly; a
// per-gamma threshold table (toneTable) replaces the Pow for all inputs
// outside a narrow guard band around each byte boundary.
func Tonemap(rad []bintree.RGB, width, height int, exposure, gamma float64) *image.RGBA {
	if gamma <= 0 {
		gamma = 2.2
	}
	exposure = autoExposure(rad, exposure)
	tab := toneTableFor(gamma)
	img := image.NewRGBA(image.Rect(0, 0, width, height))
	pix := img.Pix
	for i, r := range rad[:min(len(rad), len(pix)/4)] {
		p := pix[4*i : 4*i+4 : 4*i+4]
		p[0] = tab.tone(r.R, exposure)
		p[1] = tab.tone(r.G, exposure)
		p[2] = tab.tone(r.B, exposure)
		p[3] = 255
	}
	return img
}

// autoExposure resolves the exposure setting: nonzero passes through;
// zero selects 0.5·n/Σlum over the lit pixels (or 1 for a black frame).
func autoExposure(rad []bintree.RGB, exposure float64) float64 {
	if exposure != 0 {
		return exposure
	}
	mean := 0.0
	n := 0
	for _, r := range rad {
		l := lum(r)
		if l > 0 {
			mean += l
			n++
		}
	}
	if n > 0 && mean > 0 {
		return 0.5 * float64(n) / mean
	}
	return 1
}

func lum(r bintree.RGB) float64 { return 0.2126*r.R + 0.7152*r.G + 0.0722*r.B }

// toneChannel is the reference tone map of one channel, the definition
// every Tonemap byte must equal.
func toneChannel(x, exposure, gamma float64) uint8 {
	if x <= 0 {
		return 0
	}
	return gammaByte(reinhard(x, exposure), gamma)
}

// reinhard is the exposed radiance compressed into q = v/(1+v).
func reinhard(x, exposure float64) float64 {
	v := x * exposure
	return v / (1 + v)
}

// gammaByte rounds q's display-gamma value to a byte.
func gammaByte(q, gamma float64) uint8 {
	return uint8(vecmath.Clamp(math.Pow(q, 1/gamma)*255+0.5, 0, 255))
}

// toneTable answers gammaByte(q, gamma) by comparison instead of math.Pow.
// On [0,1] gammaByte is a step function of q, so it is fixed by the 255
// thresholds where its value reaches 1, 2, …, 255, each found by bisection
// over float64 bit patterns against gammaByte itself.
//
// The steps are not exactly monotone: math.Pow is not correctly rounded,
// and within a few ULPs of some thresholds gammaByte goes k, k−1, k. A q
// within a relative guardRel of a threshold is therefore answered by
// gammaByte itself. Outside the bands a relative change of guardRel in q
// moves q^(1/γ) by about guardRel/γ — for γ ≤ maxTableGamma orders of
// magnitude more than Pow's error — so the count of thresholds below q is
// gammaByte(q) exactly. q outside [2⁻¹⁰²², 1] (negative, subnormal, NaN,
// or above 1 from a negative exposure) also goes to gammaByte.
type toneTable struct {
	gamma float64
	// qmin is the least q the table answers: the smallest normal float64,
	// or +Inf for a gamma the table does not cover, which sends every q to
	// gammaByte.
	qmin float64
	// lo[k] and hi[k] bound the guard band around the least q that
	// gammaByte maps to k+1 or more; both are non-decreasing in k.
	lo, hi [255]float64
	// bucket[b-base] is the number of lo[k] at or below the least q whose
	// bits>>bucketShift is b: the byte to start stepping from.
	base   uint64
	bucket []uint8
}

const (
	// bucketShift keeps q's exponent and top 8 mantissa bits: 256 buckets
	// per binade, about 5k buckets at γ 2.2, so a lookup steps past at
	// most a couple of thresholds.
	bucketShift = 44
	// guardRel is the guard band's half-width relative to its threshold.
	guardRel = 1e-9
	// maxTableGamma bounds the gammas whose guard band is proven wide
	// enough (see toneTable); larger or NaN gammas map every pixel
	// through gammaByte.
	maxTableGamma = 1e4
)

// tone is toneChannel(x, exposure, t.gamma).
func (t *toneTable) tone(x, exposure float64) uint8 {
	if x <= 0 {
		return 0
	}
	return t.byteOf(reinhard(x, exposure))
}

// byteOf is gammaByte(q, t.gamma).
func (t *toneTable) byteOf(q float64) uint8 {
	if !(q >= t.qmin && q <= 1) {
		return gammaByte(q, t.gamma)
	}
	k := 0
	if b := math.Float64bits(q) >> bucketShift; b >= t.base {
		k = int(t.bucket[b-t.base])
	}
	for k < len(t.lo) && q >= t.lo[k] {
		k++
	}
	if k > 0 && q <= t.hi[k-1] {
		return gammaByte(q, t.gamma)
	}
	return uint8(k)
}

// newToneTable builds the table for one gamma (about a millisecond: 255
// bisections of at most 62 Pow calls each).
func newToneTable(gamma float64) *toneTable {
	t := &toneTable{gamma: gamma, qmin: math.Inf(1)}
	if !(gamma > 0 && gamma <= maxTableGamma) {
		return t
	}
	one := math.Float64bits(1)
	th := 0.0
	for k := range t.lo {
		// gammaByte(0) = 0 and gammaByte(1) = 255 bracket every byte.
		lo, hi := uint64(0), one
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if int(gammaByte(math.Float64frombits(mid), gamma)) > k {
				hi = mid
			} else {
				lo = mid
			}
		}
		th = max(th, math.Float64frombits(hi))
		t.lo[k] = th * (1 - guardRel)
		t.hi[k] = th * (1 + guardRel)
	}
	t.qmin = 0x1p-1022 // the smallest normal float64
	t.base = math.Float64bits(max(t.lo[0], t.qmin)) >> bucketShift
	t.bucket = make([]uint8, one>>bucketShift-t.base+1)
	k := 0
	for i := range t.bucket {
		start := math.Float64frombits((t.base + uint64(i)) << bucketShift)
		for k < len(t.lo) && t.lo[k] <= start {
			k++
		}
		t.bucket[i] = uint8(k)
	}
	return t
}

// toneTables caches one table per gamma (keyed by its bits) for the life
// of the process; callers use a handful of gammas, most only the default.
var (
	toneTablesMu sync.Mutex
	toneTables   = map[uint64]*toneTable{}
)

// toneTableFor returns gamma's table, building it on first use. Concurrent
// first uses build it once; the table is read-only afterwards.
func toneTableFor(gamma float64) *toneTable {
	key := math.Float64bits(gamma)
	toneTablesMu.Lock()
	defer toneTablesMu.Unlock()
	t, ok := toneTables[key]
	if !ok {
		t = newToneTable(gamma)
		toneTables[key] = t
	}
	return t
}
