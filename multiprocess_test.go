package photon

// Multi-process conformance: the photon-coord / photon-worker binaries —
// real OS processes joined over TCP — must produce bit-identical forests
// identical statistics and, without checkpoints, identical traffic to the
// in-process distributed engine, at any rank count, and a
// killed-and-replaced worker must not change the
// answer. These tests exec the actual binaries, so they pin the whole
// stack: join handshake, mesh build, wire format, checkpoint gather,
// and resume.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/scenes"
)

// coordSummary mirrors photon-coord's -json output.
type coordSummary struct {
	Fingerprint string           `json:"fingerprint"`
	Stats       core.Stats       `json:"stats"`
	PerRank     []dist.RankStats `json:"perRank"`
	Forwards    int64            `json:"forwards"`
	Messages    int64            `json:"messages"`
	Bytes       int64            `json:"bytes"`
}

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// buildWorkerBinaries compiles photon-coord and photon-worker once per
// test process.
func buildWorkerBinaries(t *testing.T) (coordBin, workerBin string) {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "photon-mp-*")
		if buildErr != nil {
			return
		}
		for _, name := range []string{"photon-coord", "photon-worker"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(buildDir, name), "./cmd/"+name)
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = fmt.Errorf("building %s: %v\n%s", name, err, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return filepath.Join(buildDir, "photon-coord"), filepath.Join(buildDir, "photon-worker")
}

// launchJob starts a coordinator plus workers and returns the parsed
// summary. extraWorkerArgs[i] is appended to worker i's command line.
func launchJob(t *testing.T, coordArgs []string, workers int, extraWorkerArgs map[int][]string) (coordSummary, string) {
	t.Helper()
	coordBin, workerBin := buildWorkerBinaries(t)
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	jsonFile := filepath.Join(dir, "result.json")

	args := append([]string{
		"-listen", "127.0.0.1:0", "-addr-file", addrFile,
		"-json", jsonFile, "-o", "",
	}, coordArgs...)
	coordCmd := exec.Command(coordBin, args...)
	var coordLog strings.Builder
	coordCmd.Stdout = &coordLog
	coordCmd.Stderr = &coordLog
	if err := coordCmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer coordCmd.Process.Kill()

	addr := waitForFile(t, addrFile)
	var procs []*exec.Cmd
	for i := 0; i < workers; i++ {
		wargs := append([]string{"-coord", addr}, extraWorkerArgs[i]...)
		w := exec.Command(workerBin, wargs...)
		w.Stdout = &nullWriter{}
		w.Stderr = &nullWriter{}
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		procs = append(procs, w)
		defer w.Process.Kill()
		if len(extraWorkerArgs) > 0 {
			// Stagger joins so worker launch order is join-id order — the
			// coordinator assigns ranks lowest-id first, and the fault
			// injection tests rely on the faulty worker being selected.
			time.Sleep(200 * time.Millisecond)
		}
	}

	if err := coordCmd.Wait(); err != nil {
		t.Fatalf("coordinator failed: %v\n%s", err, coordLog.String())
	}
	for _, w := range procs {
		w.Wait()
	}
	buf, err := os.ReadFile(jsonFile)
	if err != nil {
		t.Fatalf("no result summary: %v\n%s", err, coordLog.String())
	}
	var sum coordSummary
	if err := json.Unmarshal(buf, &sum); err != nil {
		t.Fatal(err)
	}
	return sum, coordLog.String()
}

type nullWriter struct{}

func (nullWriter) Write(p []byte) (int, error) { return len(p), nil }

func waitForFile(t *testing.T, path string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if buf, err := os.ReadFile(path); err == nil && len(buf) > 0 {
			return string(buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("coordinator never wrote its control address")
	return ""
}

// expectJob computes the in-process expectation for a subprocess job.
func expectJob(t *testing.T, engine string, photons int64, ranks, batch int) *dist.Result {
	t.Helper()
	sc, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	var cfg dist.Config
	if engine == "geo" {
		cfg = dist.DefaultGeoConfig(photons, ranks)
	} else {
		cfg = dist.DefaultConfig(photons, ranks)
	}
	if batch > 0 {
		cfg.BatchSize = batch
	}
	var res *dist.Result
	if engine == "geo" {
		res, err = dist.GeoRun(sc, cfg)
	} else {
		res, err = dist.Run(sc, cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertMatches(t *testing.T, sum coordSummary, want *dist.Result, log string) {
	t.Helper()
	if g, w := sum.Fingerprint, fmt.Sprintf("%016x", want.Forest.Fingerprint()); g != w {
		t.Errorf("fingerprint %s, in-process engine gives %s\n%s", g, w, log)
	}
	if sum.Stats != want.Stats {
		t.Errorf("stats %+v, in-process engine gives %+v", sum.Stats, want.Stats)
	}
	if len(sum.PerRank) != len(want.PerRank) {
		t.Fatalf("got %d rank entries, want %d", len(sum.PerRank), len(want.PerRank))
	}
	for r := range want.PerRank {
		if sum.PerRank[r] != want.PerRank[r] {
			t.Errorf("rank %d stats %+v, in-process engine gives %+v", r, sum.PerRank[r], want.PerRank[r])
		}
	}
	if sum.Forwards != want.Forwards {
		t.Errorf("forwards %d, in-process engine gives %d", sum.Forwards, want.Forwards)
	}
}

// assertSameTraffic: a job without checkpoints sends exactly the in-process
// run's messages and bytes, because both run one rank program.
func assertSameTraffic(t *testing.T, sum coordSummary, want *dist.Result) {
	t.Helper()
	if sum.Messages != want.Traffic.Messages || sum.Bytes != want.Traffic.Bytes {
		t.Errorf("traffic %d msgs / %d B, in-process engine gives %d msgs / %d B",
			sum.Messages, sum.Bytes, want.Traffic.Messages, want.Traffic.Bytes)
	}
}

func TestMultiProcessConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("execs subprocesses")
	}
	const photons = 20000
	for _, ranks := range []int{2, 4} {
		t.Run(fmt.Sprintf("replicated-%dranks", ranks), func(t *testing.T) {
			want := expectJob(t, "replicated", photons, ranks, 0)
			sum, log := launchJob(t, []string{
				"-scene", "quickstart", "-photons", fmt.Sprint(photons),
				"-ranks", fmt.Sprint(ranks), "-checkpoint-every", "0",
			}, ranks-1, nil)
			assertMatches(t, sum, want, log)
			assertSameTraffic(t, sum, want)
			assertCleanTeardown(t, log)
		})
	}
	t.Run("geo-2ranks", func(t *testing.T) {
		want := expectJob(t, "geo", photons, 2, 0)
		sum, log := launchJob(t, []string{
			"-scene", "quickstart", "-photons", fmt.Sprint(photons),
			"-ranks", "2", "-engine", "geo",
		}, 1, nil)
		assertMatches(t, sum, want, log)
		assertSameTraffic(t, sum, want)
		assertCleanTeardown(t, log)
	})
}

// assertCleanTeardown pins the mesh teardown order on a healthy run: no
// worker may report a failed rank. A rank that passes the finalize
// barrier must not close its mesh until the coordinator confirms every
// rank is done — an early FIN races rank 0's barrier broadcast to slower
// peers (different connections, no ordering) and poisons them
// mid-barrier, which surfaced as spurious "world closed during Barrier"
// failures on otherwise-successful jobs.
func assertCleanTeardown(t *testing.T, log string) {
	t.Helper()
	if strings.Contains(log, "failed") {
		t.Errorf("healthy run reported rank failures:\n%s", log)
	}
}

// TestMultiProcessKillResume is the fault-tolerance acceptance test: one
// worker kills itself mid-job at a deterministic round boundary; the
// coordinator detects the death, waits for the replacement (already
// joined), resumes from the last checkpoint, and the final answer is
// bit-identical to an uninterrupted run.
func TestMultiProcessKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("execs subprocesses")
	}
	const photons = 20000
	const ranks = 3
	const batch = 1000
	want := expectJob(t, "replicated", photons, ranks, batch)

	// Worker 0 joins first (lowest id, so attempt 0 selects it) and dies
	// after round 2; workers 1 and 2 are sound, so the retry has a full
	// complement without anyone restarting.
	sum, log := launchJob(t, []string{
		"-scene", "quickstart", "-photons", fmt.Sprint(photons),
		"-ranks", fmt.Sprint(ranks), "-batch", fmt.Sprint(batch),
		"-checkpoint-every", "1", "-heartbeat-timeout", "5s",
	}, ranks, map[int][]string{
		0: {"-fail-after-round", "2"},
	})
	if !strings.Contains(log, "resuming") {
		t.Errorf("coordinator never resumed from a checkpoint:\n%s", log)
	}
	assertMatches(t, sum, want, log)
}
