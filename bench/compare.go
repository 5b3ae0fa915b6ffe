package main

// Repeated runs and the comparison of two sets of them, by the rules of the
// choosing-metrics guide: a gain is claimed only over at least ten pairs,
// won nine times in ten, with medians further apart than the parent's own
// interquartile range; a regression is a median worse than the parent's by
// more than the bound BENCHMARK.json fixes; and where the parent's spread
// is wider than that bound the answer is "unresolved", not "same".

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// reportSeries prints median and quartiles of every metric over the runs of
// one workload.
func reportSeries(series []*runResult) {
	fmt.Printf("== %s over %d runs: first quartile, median, third quartile, IQR/median\n", series[0].Workload, len(series))
	for _, name := range metricNames(series) {
		vals := valuesOf(series, name)
		q1, q2, q3 := quartiles(vals)
		fmt.Printf("   %-40s %12.6g %12.6g %12.6g %-10s %6.1f%%\n",
			name, q1, q2, q3, series[0].Metrics[name].Unit, 100*spreadShare(vals))
	}
}

func metricNames(series []*runResult) []string {
	var names []string
	for name := range series[0].Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func valuesOf(series []*runResult, name string) []float64 {
	vals := make([]float64, 0, len(series))
	for _, r := range series {
		if m, ok := r.Metrics[name]; ok {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

// declared is one metric's entry in BENCHMARK.json.
type declared struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadDeclared reads direction and bound of every metric from
// BENCHMARK.json in the working directory (the repository root).
func loadDeclared() (map[string]declared, error) {
	buf, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("reading the bounds: %w (run from the repository root)", err)
	}
	var file struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &file); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := make(map[string]declared)
	for _, d := range append(file.EndToEnd, file.PerLayer...) {
		out[d.Name] = d
	}
	return out, nil
}

// loadRuns reads one side of a comparison: a file written by -out, or
// several separated by commas, in the order they were run.
func loadRuns(arg string) (map[string][]*runResult, error) {
	byWorkload := make(map[string][]*runResult)
	for _, path := range strings.Split(arg, ",") {
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var runs []*runResult
		if err := json.Unmarshal(buf, &runs); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range runs {
			byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
		}
	}
	return byWorkload, nil
}

// minPairs and winShare are the guide's pair rule.
const (
	minPairs = 10
	winShare = 0.9
)

// verdict judges side b against side a for one metric of one workload.
// a[i] and b[i] are a pair. bound 0 means the metric has none (per-layer).
func verdict(a, b []float64, higherBetter bool, bound float64) string {
	pairs := min(len(a), len(b))
	if pairs == 0 {
		return "unresolved"
	}
	a, b = a[:pairs], b[:pairs]
	sign := 1.0
	if !higherBetter {
		sign = -1
	}
	wins, losses := 0, 0
	for i := range a {
		switch d := sign * (b[i] - a[i]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	q1, medA, q3 := quartiles(a)
	medB := median(b)
	gain := sign * (medB - medA) // positive = b better
	iqr := q3 - q1
	decisive := pairs >= minPairs && math.Abs(gain) > iqr
	switch {
	case decisive && float64(wins) >= winShare*float64(pairs):
		return "better"
	case decisive && float64(losses) >= winShare*float64(pairs):
		return "worse"
	case bound > 0 && -gain > bound*math.Abs(medA):
		return "worse"
	}
	// Not shown better, not beyond the bound. "Same" needs the parent's
	// own spread to be narrower than what is being ruled out — unless every
	// run of b reads better than every run of a.
	limit := bound * math.Abs(medA)
	if bound == 0 {
		limit = math.Abs(gain)
	}
	if iqr > limit && !(wins == pairs && allBeyond(a, b, sign)) {
		return "unresolved"
	}
	return "same"
}

// allBeyond reports whether every value of b is better than every value of
// a.
func allBeyond(a, b []float64, sign float64) bool {
	worstB, bestA := math.Inf(1), math.Inf(-1)
	for i := range a {
		worstB = math.Min(worstB, sign*b[i])
		bestA = math.Max(bestA, sign*a[i])
	}
	return worstB > bestA
}

func compareFiles(aArg, bArg string) error {
	decl, err := loadDeclared()
	if err != nil {
		return err
	}
	aRuns, err := loadRuns(aArg)
	if err != nil {
		return err
	}
	bRuns, err := loadRuns(bArg)
	if err != nil {
		return err
	}
	var names []string
	for name := range aRuns {
		if len(bRuns[name]) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("the two sides share no workload")
	}
	for _, wl := range names {
		a, b := aRuns[wl], bRuns[wl]
		pairs := min(len(a), len(b))
		fmt.Printf("== %s: %d pairs (a: rev %s, b: rev %s)\n", wl, pairs, a[0].Host.Revision, b[0].Host.Revision)
		if a[0].Traced != b[0].Traced {
			fmt.Println("   note: one side is traced and the other is not; wall-clock differences are the tracing overhead")
			fmt.Printf("   %-40s a %.3fs  b %.3fs  b/a-1 = %+.1f%%\n", "window_s",
				a[0].WindowS, b[0].WindowS, 100*(b[0].WindowS/a[0].WindowS-1))
		}
		if pairs < minPairs {
			fmt.Printf("   fewer than %d pairs: nothing here can read \"better\"\n", minPairs)
		}
		for _, name := range metricNames(a) {
			av, bv := valuesOf(a, name), valuesOf(b, name)
			if len(bv) == 0 {
				continue
			}
			d, known := decl[name]
			if !known {
				d = declared{Better: "lower"}
			}
			fmt.Printf("   %-40s a %12.6g  b %12.6g  %+7.1f%%  bound %4.0f%%  %s\n",
				name, median(av), median(bv), 100*(median(bv)/median(av)-1), 100*d.Bound,
				verdict(av, bv, d.Better == "higher", d.Bound))
		}
	}
	return nil
}
