package rng

import (
	"math"
	"testing"
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
