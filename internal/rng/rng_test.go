package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDistinctStreams(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds matched %d/100 draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 100000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64MeanAndVariance(t *testing.T) {
	s := New(12345)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Float64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want 0.5 +- 0.01", mean)
	}
	if math.Abs(variance-1.0/12) > 0.01 {
		t.Errorf("variance = %v, want 1/12 +- 0.01", variance)
	}
}

func TestFloat64Uniformity(t *testing.T) {
	// Chi-square over 20 equal-width cells. With 19 dof, 43.8 is the 0.001
	// critical value; a correct generator fails with probability 1e-3 and the
	// stream is fixed by seed, so this is deterministic in practice.
	s := New(99)
	const n, cells = 100000, 20
	var counts [cells]int
	for i := 0; i < n; i++ {
		counts[int(s.Float64()*cells)]++
	}
	expect := float64(n) / cells
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expect
		chi2 += d * d / expect
	}
	if chi2 > 43.8 {
		t.Fatalf("chi-square = %v exceeds 43.8 (p=0.001, 19 dof)", chi2)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestJumpAheadMatchesSequentialStepping(t *testing.T) {
	for _, n := range []uint64{0, 1, 2, 3, 17, 100, 12345} {
		a := New(55)
		b := New(55)
		for i := uint64(0); i < n; i++ {
			a.Uint64()
		}
		b.JumpAhead(n)
		if a.State() != b.State() {
			t.Fatalf("JumpAhead(%d): state %x, sequential %x", n, b.State(), a.State())
		}
	}
}

func TestJumpAheadProperty(t *testing.T) {
	f := func(seed int64, steps uint16) bool {
		n := uint64(steps) % 4096
		a, b := New(seed), New(seed)
		for i := uint64(0); i < n; i++ {
			a.Uint64()
		}
		b.JumpAhead(n)
		return a.State() == b.State()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestJumpAheadComposes(t *testing.T) {
	// Jumping a then b equals jumping a+b.
	a, b := New(9), New(9)
	a.JumpAhead(1 << 20)
	a.JumpAhead(1 << 21)
	b.JumpAhead(1<<20 + 1<<21)
	if a.State() != b.State() {
		t.Fatal("JumpAhead does not compose additively")
	}
}

func TestJumpAheadFullPeriodIsIdentity(t *testing.T) {
	s := New(1234)
	before := s.State()
	// 2^48 steps wraps the full period back to the start. JumpAhead takes a
	// uint64 so the full period is representable.
	s.JumpAhead(1 << 48)
	if s.State() != before {
		t.Fatalf("full-period jump changed state: %x -> %x", before, s.State())
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(2)
	b := a.Clone()
	a.Uint64()
	if a.State() == b.State() {
		t.Fatal("advancing original affected clone")
	}
	// But the clone continues from the shared point identically.
	c := New(2)
	if b.Uint64() != c.Uint64() {
		t.Fatal("clone diverged from source history")
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(2024)
	const n = 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v", variance)
	}
}

func TestStateMask48(t *testing.T) {
	s := NewFromState(math.MaxUint64)
	if s.State() != mask48 {
		t.Fatalf("state not masked to 48 bits: %x", s.State())
	}
	for i := 0; i < 100; i++ {
		if s.Uint64()>>48 != 0 {
			t.Fatal("output exceeds 48 bits")
		}
	}
}
