package perfmodel

import (
	"math"
	"strings"
	"testing"
)

func TestValidateComputesSpeedups(t *testing.T) {
	// Synthetic measurements: 1000 photons/s serial, perfect 2x at two
	// ranks, 3x at four.
	runs := []Measured{
		{Ranks: 4, WallSeconds: 1, Photons: 3000},
		{Ranks: 1, WallSeconds: 1, Photons: 1000},
		{Ranks: 2, WallSeconds: 1, Photons: 2000},
	}
	rep, err := Validate(SP2(), CornellModel(), runs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaselineRate != 1000 {
		t.Fatalf("baseline = %v, want 1000", rep.BaselineRate)
	}
	if len(rep.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(rep.Points))
	}
	// Sorted by rank count regardless of input order.
	for i, want := range []int{1, 2, 4} {
		if rep.Points[i].Ranks != want {
			t.Fatalf("point %d at %d ranks, want %d", i, rep.Points[i].Ranks, want)
		}
	}
	if s := rep.Points[1].MeasuredSpeedup; math.Abs(s-2) > 1e-12 {
		t.Fatalf("2-rank measured speedup = %v, want 2", s)
	}
	if rep.Points[0].PredictedSpeedup != 1 {
		t.Fatalf("1-rank predicted speedup = %v, want 1", rep.Points[0].PredictedSpeedup)
	}
	p4 := rep.Points[2]
	if p4.PredictedSpeedup <= 0 {
		t.Fatalf("4-rank predicted speedup = %v", p4.PredictedSpeedup)
	}
	if want := p4.MeasuredSpeedup / p4.PredictedSpeedup; math.Abs(p4.Ratio-want) > 1e-12 {
		t.Fatalf("ratio = %v, want %v", p4.Ratio, want)
	}
}

func TestValidateRejectsBadInput(t *testing.T) {
	p, s := Onyx(), CornellModel()
	cases := []struct {
		name string
		runs []Measured
		want string
	}{
		{"empty", nil, "no measured runs"},
		{"no baseline", []Measured{{Ranks: 2, WallSeconds: 1, Photons: 100}}, "baseline"},
		{"duplicate ranks", []Measured{
			{Ranks: 1, WallSeconds: 1, Photons: 100},
			{Ranks: 2, WallSeconds: 1, Photons: 100},
			{Ranks: 2, WallSeconds: 2, Photons: 100},
		}, "duplicate"},
		{"zero wall", []Measured{{Ranks: 1, WallSeconds: 0, Photons: 100}}, "no timing"},
		{"bad ranks", []Measured{{Ranks: 0, WallSeconds: 1, Photons: 100}}, "invalid rank count"},
	}
	for _, c := range cases {
		_, err := Validate(p, s, c.runs)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}
