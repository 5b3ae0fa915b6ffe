package stats

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table X", "Name", "Count")
	tb.AddRow("cornell", 30)
	tb.AddRow("lab", 2000)
	out := tb.String()
	for _, want := range []string{"Table X", "Name", "Count", "cornell", "30", "lab", "2000", "----"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(3.14159)
	tb.AddRow(1234.5678)
	tb.AddRow(0.000123)
	tb.AddRow(42.0)
	out := tb.String()
	for _, want := range []string{"3.14", "1234.6", "0.0001", "42"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("", "A", "B")
	tb.AddRow("x", "yyyyyy")
	lines := strings.Split(strings.TrimRight(tb.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines", len(lines))
	}
	// Columns align: the header 'B' starts at the same offset as "yyyyyy".
	if strings.Index(lines[0], "B") != strings.Index(lines[2], "yyyyyy") {
		t.Fatalf("misaligned:\n%s", tb.String())
	}
}

func TestChartRendersAllSeries(t *testing.T) {
	c := NewChart("Speedup", "time", "photons/sec")
	c.Add(Series{Label: "1 proc", X: []float64{0.1, 1, 10}, Y: []float64{100, 100, 100}})
	c.Add(Series{Label: "8 procs", X: []float64{0.5, 5, 50}, Y: []float64{50, 400, 800}})
	out := c.String()
	for _, want := range []string{"Speedup", "1 proc", "8 procs", "photons/sec", "log scale"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	// Both markers plotted.
	if !strings.Contains(out, "1") || !strings.Contains(out, "2") {
		t.Error("markers missing")
	}
}

func TestChartEmptySeries(t *testing.T) {
	c := NewChart("Empty", "x", "y")
	if out := c.String(); !strings.Contains(out, "no data") {
		t.Fatalf("empty chart output: %q", out)
	}
}

func TestChartIgnoresNonPositiveXOnLogScale(t *testing.T) {
	c := NewChart("T", "x", "y")
	c.Add(Series{Label: "s", X: []float64{-1, 0, 1, 10}, Y: []float64{1, 2, 3, 4}})
	out := c.String()
	if out == "" {
		t.Fatal("chart failed on non-positive x")
	}
}

func TestChartLinearScale(t *testing.T) {
	c := NewChart("T", "x", "y")
	c.LogX = false
	c.Add(Series{Label: "s", X: []float64{0, 1, 2}, Y: []float64{0, 1, 4}})
	if !strings.Contains(c.String(), "x (0 ..") {
		t.Fatalf("linear axis label wrong:\n%s", c.String())
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 2})
	if min != -1 || max != 7 {
		t.Fatalf("minmax = %v, %v", min, max)
	}
	if a, b := MinMax(nil); a != 0 || b != 0 {
		t.Fatal("empty minmax")
	}
}
