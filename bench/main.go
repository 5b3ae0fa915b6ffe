// Command bench is the repository's benchmark: four seeded workloads that
// drive the whole program — every engine, the TCP transport, the render
// farm — through its exported functions and HTTP handlers in one process at
// a width of two, check the outputs, and print every metric by name with
// its unit. See README.md in this directory and BENCHMARK.json at the root.
//
//	go run ./bench -workload all -seed 1              end-to-end metrics
//	go run ./bench -workload serve-warm -trace 1      per-layer metrics
//	go run ./bench -workload solve-box -repeat 10 -out a.json
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// hostStamp is carried by every output: numbers mean something only at a
// stated width on a stated host.
type hostStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
	Seed       int64  `json:"seed"`
}

func stampHost(seed int64) hostStamp {
	// Only a checkout that is itself a repository is asked: git would
	// otherwise climb into whatever repository lies above it.
	rev := "unknown"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			rev = strings.TrimSpace(string(out))
		}
	}
	return hostStamp{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Revision: rev, Seed: seed,
	}
}

// contractLine is the last line of standard output for a single-workload
// run: exactly the keys the benchmark contract names.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runResult) contract() contractLine {
	line := contractLine{
		Correct: len(r.Problems) == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]contractMetric, len(r.Metrics)),
	}
	for name, m := range r.Metrics {
		line.Metrics[name] = contractMetric{Value: m.Value, Unit: m.Unit}
	}
	return line
}

// report prints one run for a reader: the host stamp, every metric with
// unit and sample count, fail_share, and any correctness problem.
func (r *runResult) report() {
	h := r.Host
	fmt.Printf("== %s  seed=%d  trace=%v  window=%.1fs  nproc=%d GOMAXPROCS=%d %s rev=%s\n",
		r.Workload, r.Seed, r.Traced, r.WindowS, h.NProc, h.GOMAXPROCS, h.Go, h.Revision)
	printMetrics(r.Metrics)
	if r.Traced {
		fmt.Println("   -- end-to-end, as measured with tracing on (not the gated numbers)")
		printMetrics(r.UnderTrace)
	}
	fmt.Printf("   %-40s %14.6g %-10s %d failed of %d attempted\n", "fail_share",
		float64(r.Failed)/float64(r.Attempted), "ratio", r.Failed, r.Attempted)
	for i, p := range r.Problems {
		if i == 10 {
			fmt.Printf("   ... and %d more problems\n", len(r.Problems)-i)
			break
		}
		fmt.Println("   INCORRECT:", p)
	}
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := ms[name]
		line := fmt.Sprintf("   %-40s %14.6g %-10s", name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Println(line)
	}
}

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload name, or all")
		seed         = flag.Int64("seed", 1, "seed every input is generated from")
		seconds      = flag.Float64("seconds", 20, "length of the timed window")
		trace        = flag.Int("trace", 0, "1 = traced run: record spans, report the per-layer metrics")
		out          = flag.String("out", "", "write the runs (metrics, host stamp, spans) to this JSON file")
		repeat       = flag.Int("repeat", 1, "run the workload this many times, seeds seed, seed+1, …, and print median and quartiles")
		compare      = flag.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	)
	flag.Parse()
	if err := run(*workloadName, *seed, *seconds, *trace == 1, *out, *repeat, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, out string, repeat int, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare wants two files")
		}
		return compareFiles(args[0], args[1])
	}
	if seconds <= 0 || repeat < 1 {
		return fmt.Errorf("-seconds and -repeat must be positive")
	}
	if runtime.GOMAXPROCS(0) < width {
		fmt.Fprintf(os.Stderr, "\n*** WARNING: GOMAXPROCS=%d < %d. Every width-%d configuration is oversubscribed:\n"+
			"*** the numbers below measure time-slicing, not parallel execution. Do not compare them.\n\n",
			runtime.GOMAXPROCS(0), width, width)
	}
	todo := workloads
	if name != "all" {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		todo = []workload{w}
	}

	var runs []*runResult
	for _, w := range todo {
		var series []*runResult
		for k := 0; k < repeat; k++ {
			res, err := runWorkload(w, seed+int64(k), seconds, traced)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			res.report()
			series = append(series, res)
		}
		if repeat > 1 {
			reportSeries(series)
		}
		runs = append(runs, series...)
	}
	if out != "" {
		buf, err := json.MarshalIndent(runs, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, buf, 0o644); err != nil {
			return err
		}
	}
	// The contract line describes one run; with several, the last.
	line, err := json.Marshal(runs[len(runs)-1].contract())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	for _, r := range runs {
		if len(r.Problems) > 0 {
			return fmt.Errorf("%s seed %d: %d outputs were incorrect", r.Workload, r.Seed, len(r.Problems))
		}
	}
	return nil
}
