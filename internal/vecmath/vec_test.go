package vecmath

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-12

// tame maps an arbitrary quick-generated float into a numerically friendly
// range so property tests exercise algebra, not float overflow.
func tame(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 1
	}
	return math.Mod(x, 1e6)
}

func tameV(x, y, z float64) Vec3 { return V(tame(x), tame(y), tame(z)) }

func TestAddSubInverse(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a, b := tameV(ax, ay, az), tameV(bx, by, bz)
		return a.Add(b).Sub(b).NearEqual(a, 1e-9*math.Max(1, a.Len()+b.Len()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDotCommutative(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a, b := tameV(ax, ay, az), tameV(bx, by, bz)
		return a.Dot(b) == b.Dot(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCrossAnticommutative(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a, b := tameV(ax, ay, az), tameV(bx, by, bz)
		return a.Cross(b).NearEqual(b.Cross(a).Neg(), 1e-9*math.Max(1, a.Len()*b.Len()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCrossOrthogonal(t *testing.T) {
	a, b := V(1, 2, 3), V(-4, 5, 0.5)
	c := a.Cross(b)
	if math.Abs(c.Dot(a)) > 1e-12 || math.Abs(c.Dot(b)) > 1e-12 {
		t.Fatalf("cross product not orthogonal: %v", c)
	}
}

func TestCrossBasis(t *testing.T) {
	x, y, z := V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)
	if !x.Cross(y).NearEqual(z, eps) {
		t.Errorf("x cross y = %v, want z", x.Cross(y))
	}
	if !y.Cross(z).NearEqual(x, eps) {
		t.Errorf("y cross z = %v, want x", y.Cross(z))
	}
	if !z.Cross(x).NearEqual(y, eps) {
		t.Errorf("z cross x = %v, want y", z.Cross(x))
	}
}

func TestNormUnitLength(t *testing.T) {
	cases := []Vec3{V(1, 2, 3), V(-5, 0.1, 4), V(1e-8, 0, 0), V(0, 300, -400)}
	for _, v := range cases {
		n := v.Norm()
		if math.Abs(n.Len()-1) > 1e-12 {
			t.Errorf("Norm(%v).Len() = %v, want 1", v, n.Len())
		}
	}
}

func TestNormZeroVector(t *testing.T) {
	if got := (Vec3{}).Norm(); got != (Vec3{}) {
		t.Fatalf("Norm of zero vector = %v, want zero vector", got)
	}
}

func TestScaleMul(t *testing.T) {
	v := V(1, -2, 3)
	if got := v.Scale(2); got != V(2, -4, 6) {
		t.Errorf("Scale: got %v", got)
	}
	if got := v.Mul(V(2, 3, -1)); got != V(2, -6, -3) {
		t.Errorf("Mul: got %v", got)
	}
}

func TestReflectPreservesLength(t *testing.T) {
	f := func(dx, dy, dz float64) bool {
		d := tameV(dx, dy, dz)
		if d.Len() < 1e-6 {
			return true
		}
		d = d.Norm()
		n := V(0, 0, 1)
		r := d.Reflect(n)
		return math.Abs(r.Len()-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReflectMirror(t *testing.T) {
	// A ray coming down at 45 degrees reflects up at 45 degrees.
	in := V(1, 0, -1).Norm()
	out := in.Reflect(V(0, 0, 1))
	want := V(1, 0, 1).Norm()
	if !out.NearEqual(want, 1e-12) {
		t.Fatalf("Reflect = %v, want %v", out, want)
	}
}

func TestReflectGrazingAndNormalIncidence(t *testing.T) {
	n := V(0, 0, 1)
	// Normal incidence: straight down bounces straight up.
	if got := V(0, 0, -1).Reflect(n); !got.NearEqual(V(0, 0, 1), eps) {
		t.Errorf("normal incidence: %v", got)
	}
	// Grazing: direction in the surface plane is unchanged.
	if got := V(1, 0, 0).Reflect(n); !got.NearEqual(V(1, 0, 0), eps) {
		t.Errorf("grazing incidence: %v", got)
	}
}

func TestLuminanceWeightsSumToOne(t *testing.T) {
	if got := V(1, 1, 1).Luminance(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("Luminance(white) = %v, want 1", got)
	}
}

func TestMinMaxComponent(t *testing.T) {
	v := V(3, -1, 2)
	if v.MaxComponent() != 3 {
		t.Errorf("MaxComponent = %v", v.MaxComponent())
	}
}

func TestIsFinite(t *testing.T) {
	if !V(1, 2, 3).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if V(math.NaN(), 0, 0).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if V(0, math.Inf(1), 0).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

func TestRayAt(t *testing.T) {
	r := Ray{Origin: V(1, 0, 0), Dir: V(0, 1, 0)}
	if got := r.At(2.5); !got.NearEqual(V(1, 2.5, 0), eps) {
		t.Fatalf("Ray.At = %v", got)
	}
}

func TestONBOrthonormal(t *testing.T) {
	dirs := []Vec3{
		V(0, 0, 1), V(0, 0, -1), V(1, 0, 0), V(0, 1, 0),
		V(1, 1, 1), V(-0.3, 0.9, 0.1), V(0.99, 0.01, 0.01),
	}
	for _, d := range dirs {
		b := NewONB(d)
		for name, got := range map[string]float64{
			"|U|": b.U.Len(), "|V|": b.V.Len(), "|W|": b.W.Len(),
		} {
			if math.Abs(got-1) > 1e-12 {
				t.Errorf("dir %v: %s = %v, want 1", d, name, got)
			}
		}
		for name, got := range map[string]float64{
			"U.V": b.U.Dot(b.V), "V.W": b.V.Dot(b.W), "U.W": b.U.Dot(b.W),
		} {
			if math.Abs(got) > 1e-12 {
				t.Errorf("dir %v: %s = %v, want 0", d, name, got)
			}
		}
		// Right-handed: U x V = W.
		if !b.U.Cross(b.V).NearEqual(b.W, 1e-12) {
			t.Errorf("dir %v: basis not right-handed", d)
		}
		// W is the normalized input.
		if !b.W.NearEqual(d.Norm(), 1e-12) {
			t.Errorf("dir %v: W = %v", d, b.W)
		}
	}
}

func TestONBRoundTrip(t *testing.T) {
	b := NewONB(V(0.3, -0.4, 0.87))
	f := func(x, y, z float64) bool {
		// Clamp the magnitude so precision stays meaningful.
		x, y, z = math.Mod(x, 100), math.Mod(y, 100), math.Mod(z, 100)
		w := b.ToWorld(x, y, z)
		lx, ly, lz := b.ToLocal(w)
		return math.Abs(lx-x) < 1e-9 && math.Abs(ly-y) < 1e-9 && math.Abs(lz-z) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{0.5, 0, 1, 0.5},
		{-2, 0, 1, 0},
		{7, 0, 1, 1},
		{0, 0, 0, 0},
	}
	for _, c := range cases {
		if got := Clamp(c.x, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", c.x, c.lo, c.hi, got, c.want)
		}
	}
}

func TestVecString(t *testing.T) {
	if got := V(1, 2.5, -3).String(); got != "(1, 2.5, -3)" {
		t.Fatalf("String = %q", got)
	}
}
