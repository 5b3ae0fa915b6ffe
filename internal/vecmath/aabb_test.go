package vecmath

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEmptyAABB(t *testing.T) {
	e := EmptyAABB()
	if e.Contains(V(0, 0, 0)) {
		t.Fatal("empty box contains a point")
	}
}

func TestNewAABBOrdersCorners(t *testing.T) {
	b := NewAABB(V(1, -2, 5), V(-3, 4, 0))
	if b.Min != V(-3, -2, 0) || b.Max != V(1, 4, 5) {
		t.Fatalf("NewAABB = %+v", b)
	}
}

func TestUnionIdentity(t *testing.T) {
	b := NewAABB(V(0, 0, 0), V(1, 2, 3))
	if got := EmptyAABB().Union(b); got != b {
		t.Fatalf("empty union b = %+v, want %+v", got, b)
	}
	if got := b.Union(EmptyAABB()); got != b {
		t.Fatalf("b union empty = %+v, want %+v", got, b)
	}
}

func TestExtendContains(t *testing.T) {
	f := func(px, py, pz float64) bool {
		p := V(math.Mod(px, 1e6), math.Mod(py, 1e6), math.Mod(pz, 1e6))
		b := EmptyAABB().Extend(p)
		return b.Contains(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnionContainsBoth(t *testing.T) {
	a := NewAABB(V(0, 0, 0), V(1, 1, 1))
	b := NewAABB(V(2, -1, 0.5), V(3, 0, 4))
	u := a.Union(b)
	for _, p := range []Vec3{a.Min, a.Max, b.Min, b.Max} {
		if !u.Contains(p) {
			t.Errorf("union does not contain %v", p)
		}
	}
}

func TestOverlaps(t *testing.T) {
	a := NewAABB(V(0, 0, 0), V(1, 1, 1))
	cases := []struct {
		b    AABB
		want bool
	}{
		{NewAABB(V(0.5, 0.5, 0.5), V(2, 2, 2)), true},
		{NewAABB(V(1, 1, 1), V(2, 2, 2)), true}, // touching corner counts
		{NewAABB(V(1.1, 0, 0), V(2, 1, 1)), false},
		{NewAABB(V(-1, -1, -1), V(2, 2, 2)), true}, // containment
	}
	for i, c := range cases {
		if got := a.Overlaps(c.b); got != c.want {
			t.Errorf("case %d: Overlaps = %v, want %v", i, got, c.want)
		}
		if got := c.b.Overlaps(a); got != c.want {
			t.Errorf("case %d: Overlaps not symmetric", i)
		}
	}
}

func TestCenterSize(t *testing.T) {
	b := NewAABB(V(0, 2, -4), V(2, 6, 0))
	if got := b.Center(); !got.NearEqual(V(1, 4, -2), eps) {
		t.Errorf("Center = %v", got)
	}
	if got := b.Size(); !got.NearEqual(V(2, 4, 4), eps) {
		t.Errorf("Size = %v", got)
	}
}

func TestPad(t *testing.T) {
	b := NewAABB(V(0, 0, 0), V(1, 1, 1)).Pad(0.5)
	if b.Min != V(-0.5, -0.5, -0.5) || b.Max != V(1.5, 1.5, 1.5) {
		t.Fatalf("Pad = %+v", b)
	}
}

func TestOctantsPartition(t *testing.T) {
	b := NewAABB(V(0, 0, 0), V(2, 2, 2))
	// The 8 octants tile the box: total volume matches, each contains its
	// expected corner.
	var vol float64
	for i := 0; i < 8; i++ {
		o := b.Octant(i)
		s := o.Size()
		vol += s.X * s.Y * s.Z
	}
	if math.Abs(vol-8) > eps {
		t.Fatalf("octant volumes sum to %v, want 8", vol)
	}
	if !b.Octant(0).Contains(V(0, 0, 0)) {
		t.Error("octant 0 should contain the min corner")
	}
	if !b.Octant(7).Contains(V(2, 2, 2)) {
		t.Error("octant 7 should contain the max corner")
	}
	if !b.Octant(1).Contains(V(2, 0, 0)) {
		t.Error("octant 1 should contain the +X corner")
	}
}
