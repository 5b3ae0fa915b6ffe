package coord

import (
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/scenes"
)

// startJob runs a coordinator plus enough in-process workers over real
// TCP sockets — the full control protocol and mesh, minus process
// isolation (the subprocess conformance tests at the repo root cover
// that).
func startJob(t *testing.T, job JobSpec, opt CoordOptions) *dist.Result {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	opt.Logf = t.Logf
	for i := 0; i < job.Ranks-1; i++ {
		go func() {
			if err := RunWorker(ln.Addr().String(), WorkerOptions{FailAfterRound: -1, Logf: t.Logf}); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	res, err := RunCoordinator(ln, job, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func quickJob(ranks int) JobSpec {
	return JobSpec{Scene: "quickstart", Photons: 20000, Seed: 1, Ranks: ranks}
}

func TestJobMatchesInProcessRun(t *testing.T) {
	sc, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := quickJob(3).distConfig()
	if err != nil {
		t.Fatal(err)
	}
	want, err := dist.Run(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := startJob(t, quickJob(3), CoordOptions{})
	if g, w := res.Forest.Fingerprint(), want.Forest.Fingerprint(); g != w {
		t.Fatalf("fingerprint %x, in-process Run gives %x", g, w)
	}
	if res.Stats != want.Stats {
		t.Fatalf("stats %+v, in-process Run gives %+v", res.Stats, want.Stats)
	}
	sameTraffic(t, res, want)
}

// sameTraffic requires the TCP job to send exactly the in-process run's
// messages and bytes, pair by pair: both run one rank program.
func sameTraffic(t *testing.T, got, want *dist.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Traffic, want.Traffic) {
		t.Fatalf("traffic %d msgs / %d B %v, in-process run gives %d msgs / %d B %v",
			got.Traffic.Messages, got.Traffic.Bytes, got.Traffic.PerPair,
			want.Traffic.Messages, want.Traffic.Bytes, want.Traffic.PerPair)
	}
}

func TestGeoJobMatchesInProcessRun(t *testing.T) {
	sc, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	job := quickJob(2)
	job.Engine = "geo"
	cfg, err := job.distConfig()
	if err != nil {
		t.Fatal(err)
	}
	want, err := dist.GeoRun(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := startJob(t, job, CoordOptions{})
	if g, w := res.Forest.Fingerprint(), want.Forest.Fingerprint(); g != w {
		t.Fatalf("fingerprint %x, in-process GeoRun gives %x", g, w)
	}
	if res.Forwards != want.Forwards {
		t.Fatalf("forwards %d, in-process GeoRun gives %d", res.Forwards, want.Forwards)
	}
	sameTraffic(t, res, want)
}

func TestCheckpointingJobMatchesPlainJob(t *testing.T) {
	plain := startJob(t, quickJob(2), CoordOptions{})
	job := quickJob(2)
	job.BatchSize = 1000
	job.CheckpointEvery = 1
	ckpt := startJob(t, job, CoordOptions{})
	if g, w := ckpt.Forest.Fingerprint(), plain.Forest.Fingerprint(); g != w {
		t.Fatalf("checkpointing changed the answer: %x vs %x", g, w)
	}
}

// TestHandshakeRejectsWrongWireVersion pins the join handshake: a binary
// speaking a different wire version must be refused with a reason, not
// silently given a rank.
func TestHandshakeRejectsWrongWireVersion(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := RunCoordinator(ln, quickJob(2), CoordOptions{Logf: t.Logf, MaxAttempts: 1,
			HeartbeatTimeout: time.Second})
		errCh <- err
	}()

	conn, err := dialControl(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeMsg(conn, ctrlMsg{Kind: kindHello, Version: WireVersion + 1}); err != nil {
		t.Fatal(err)
	}
	m, err := readMsg(conn)
	if err != nil {
		t.Fatalf("expected a reject message, got %v", err)
	}
	if m.Kind != kindReject || !strings.Contains(m.Reason, "wire version") {
		t.Fatalf("expected a versioned reject, got %+v", m)
	}

	// A correct-version worker joining afterwards completes the job: the
	// reject only refused the one connection.
	go RunWorker(ln.Addr().String(), WorkerOptions{FailAfterRound: -1, Logf: t.Logf})
	if err := <-errCh; err != nil {
		t.Fatalf("job after reject: %v", err)
	}
}

func TestJobSpecValidation(t *testing.T) {
	cases := []JobSpec{
		{},                    // no scene
		{Scene: "quickstart"}, // no photons
		{Scene: "quickstart", Photons: 100, Ranks: 1}, // too few ranks
		{Scene: "quickstart", Photons: 100, Ranks: 2, Engine: "warp"},
		{Scene: "quickstart", Photons: 100, Ranks: 2, Engine: "geo", CheckpointEvery: 1},
	}
	for i, j := range cases {
		if err := j.validate(); err == nil {
			t.Errorf("case %d: %+v validated", i, j)
		}
	}
	ok := quickJob(2)
	if err := ok.validate(); err != nil {
		t.Errorf("valid job rejected: %v", err)
	}
}
