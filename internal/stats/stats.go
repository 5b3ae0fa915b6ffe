// Package stats provides the small reporting toolkit the experiment
// harness uses: aligned text tables in the paper's units, log-scale ASCII
// series for the speed-versus-time figures, and summary statistics.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Series is one labelled curve of (x, y) points.
type Series struct {
	Label string
	X, Y  []float64
}

// Chart renders several series as a log-x ASCII chart — the form of the
// paper's speed-versus-time figures. Each series gets a marker character.
type Chart struct {
	Title      string
	XLabel     string
	YLabel     string
	Width      int
	Height     int
	LogX       bool
	SeriesList []Series
}

// NewChart creates a chart with sensible terminal dimensions.
func NewChart(title, xlabel, ylabel string) *Chart {
	return &Chart{Title: title, XLabel: xlabel, YLabel: ylabel, Width: 72, Height: 18, LogX: true}
}

// Add appends a series.
func (c *Chart) Add(s Series) { c.SeriesList = append(c.SeriesList, s) }

var markers = []byte{'1', '2', '4', '8', 'a', 'b', 'c', 'd', 'e'}

// String renders the chart.
func (c *Chart) String() string {
	if len(c.SeriesList) == 0 {
		return c.Title + " (no data)\n"
	}
	xMin, xMax := math.Inf(1), math.Inf(-1)
	yMin, yMax := 0.0, math.Inf(-1)
	for _, s := range c.SeriesList {
		for i := range s.X {
			x := s.X[i]
			if c.LogX {
				if x <= 0 {
					continue
				}
				x = math.Log10(x)
			}
			xMin = math.Min(xMin, x)
			xMax = math.Max(xMax, x)
			yMax = math.Max(yMax, s.Y[i])
		}
	}
	if xMax <= xMin {
		xMax = xMin + 1
	}
	if yMax <= yMin {
		yMax = yMin + 1
	}
	grid := make([][]byte, c.Height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", c.Width))
	}
	for si, s := range c.SeriesList {
		m := markers[si%len(markers)]
		for i := range s.X {
			x := s.X[i]
			if c.LogX {
				if x <= 0 {
					continue
				}
				x = math.Log10(x)
			}
			px := int((x - xMin) / (xMax - xMin) * float64(c.Width-1))
			py := c.Height - 1 - int((s.Y[i]-yMin)/(yMax-yMin)*float64(c.Height-1))
			if px >= 0 && px < c.Width && py >= 0 && py < c.Height {
				grid[py][px] = m
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", c.Title)
	fmt.Fprintf(&b, "%s (max %.4g)\n", c.YLabel, yMax)
	for _, row := range grid {
		fmt.Fprintf(&b, "|%s\n", string(row))
	}
	fmt.Fprintf(&b, "+%s\n", strings.Repeat("-", c.Width))
	if c.LogX {
		fmt.Fprintf(&b, " %s (log scale, %.3g .. %.3g)\n", c.XLabel, math.Pow(10, xMin), math.Pow(10, xMax))
	} else {
		fmt.Fprintf(&b, " %s (%.3g .. %.3g)\n", c.XLabel, xMin, xMax)
	}
	for si, s := range c.SeriesList {
		fmt.Fprintf(&b, "  %c = %s\n", markers[si%len(markers)], s.Label)
	}
	return b.String()
}

// MinMax returns the extrema (0,0 for empty input).
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		min = math.Min(min, x)
		max = math.Max(max, x)
	}
	return min, max
}
