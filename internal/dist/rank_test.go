package dist

import (
	"encoding/binary"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bintree"
	"repro/internal/mpi"
	"repro/internal/scenes"
)

// sameTraffic requires one pair matrix from both entry points, message for
// message and byte for byte: they run one rank program.
func sameTraffic(t *testing.T, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Traffic, want.Traffic) {
		t.Fatalf("traffic %d msgs / %d B %v, in-process engine gives %d msgs / %d B %v",
			got.Traffic.Messages, got.Traffic.Bytes, got.Traffic.PerPair,
			want.Traffic.Messages, want.Traffic.Bytes, want.Traffic.PerPair)
	}
}

func TestRunRankMatchesRun(t *testing.T) {
	sc, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	const photons = 20000
	want, err := Run(sc, DefaultConfig(photons, 3))
	if err != nil {
		t.Fatal(err)
	}
	got, err := inProcess(3, func(c mpi.Communicator) (*Result, error) {
		return RunRank(c, sc, DefaultConfig(photons, 3), RankOptions{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := got.Forest.Fingerprint(), want.Forest.Fingerprint(); g != w {
		t.Fatalf("fingerprint %x, in-process Run gives %x", g, w)
	}
	if got.Stats != want.Stats {
		t.Fatalf("stats %+v, in-process Run gives %+v", got.Stats, want.Stats)
	}
	for r := range want.PerRank {
		if got.PerRank[r] != want.PerRank[r] {
			t.Fatalf("rank %d stats %+v, in-process Run gives %+v", r, got.PerRank[r], want.PerRank[r])
		}
	}
	if got.Forwards != 0 {
		t.Fatalf("replicated engine reported %d forwards", got.Forwards)
	}
	sameTraffic(t, got, want)
	conserved(t, got)
}

func TestGeoRunRankMatchesGeoRun(t *testing.T) {
	sc, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	const photons = 20000
	want, err := GeoRun(sc, DefaultConfig(photons, 3))
	if err != nil {
		t.Fatal(err)
	}
	got, err := inProcess(3, func(c mpi.Communicator) (*Result, error) {
		return GeoRunRank(c, sc, DefaultConfig(photons, 3), RankOptions{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := got.Forest.Fingerprint(), want.Forest.Fingerprint(); g != w {
		t.Fatalf("fingerprint %x, in-process GeoRun gives %x", g, w)
	}
	if got.Stats != want.Stats {
		t.Fatalf("stats %+v, in-process GeoRun gives %+v", got.Stats, want.Stats)
	}
	if got.Forwards != want.Forwards {
		t.Fatalf("forwards %d, in-process GeoRun gives %d", got.Forwards, want.Forwards)
	}
	for r := range want.PerRank {
		if got.PerRank[r] != want.PerRank[r] {
			t.Fatalf("rank %d stats %+v, in-process GeoRun gives %+v", r, got.PerRank[r], want.PerRank[r])
		}
	}
	sameTraffic(t, got, want)
}

func TestGeoRunRankRejectsCheckpointing(t *testing.T) {
	sc, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	_, err = inProcess(1, func(c mpi.Communicator) (*Result, error) {
		return GeoRunRank(c, sc, DefaultConfig(1000, 1), RankOptions{CheckpointEvery: 1})
	})
	if err == nil {
		t.Fatal("geo accepted checkpointing")
	}
}

// TestCheckpointResumeBitIdentical runs with per-round checkpointing,
// takes a mid-run Checkpoint (round-tripped through its file encoding),
// resumes a fresh world from it, and requires the resumed run's answer to
// be bit-identical to the uninterrupted one — the property the
// kill-a-worker recovery path rests on.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	sc, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	const photons = 20000
	const ranks = 3
	mkCfg := func() Config {
		cfg := DefaultConfig(photons, ranks)
		cfg.BatchSize = 1000 // several rounds, so a mid-run checkpoint exists
		return cfg
	}

	var mu sync.Mutex
	var saved *Checkpoint
	path := filepath.Join(t.TempDir(), "ckpt.bin")
	full, err := inProcess(ranks, func(c mpi.Communicator) (*Result, error) {
		return RunRank(c, sc, mkCfg(), RankOptions{
			CheckpointEvery: 1,
			CheckpointSink: func(ck *Checkpoint) error {
				mu.Lock()
				defer mu.Unlock()
				if saved == nil && ck.Round >= 1 {
					if err := SaveCheckpoint(path, ck); err != nil {
						return err
					}
					ck2, err := LoadCheckpoint(path)
					if err != nil {
						return err
					}
					saved = ck2
				}
				return nil
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if saved == nil {
		t.Fatal("no checkpoint captured; lower BatchSize")
	}
	t.Logf("resuming from round %d of a %d-round run", saved.Round, full.PerRank[0].Batches)

	resumed, err := inProcess(ranks, func(c mpi.Communicator) (*Result, error) {
		return RunRank(c, sc, mkCfg(), RankOptions{Resume: saved})
	})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := resumed.Forest.Fingerprint(), full.Forest.Fingerprint(); g != w {
		t.Fatalf("resumed fingerprint %x, uninterrupted run gives %x", g, w)
	}
	if resumed.Stats != full.Stats {
		t.Fatalf("resumed stats %+v, uninterrupted run gives %+v", resumed.Stats, full.Stats)
	}
	for r := range full.PerRank {
		if resumed.PerRank[r] != full.PerRank[r] {
			t.Fatalf("rank %d resumed stats %+v, uninterrupted gives %+v", r, resumed.PerRank[r], full.PerRank[r])
		}
	}
}

func TestCheckpointRejectsWrongWorld(t *testing.T) {
	w, err := mpi.NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	r := newRankState(w.Comm(2), bintree.NewForest(2, bintree.DefaultConfig()), []int{0, 1}, nil)
	snap := func(rank int) []byte {
		b, err := appendSnapshot(nil, &RankSnapshot{RankStats: RankStats{Rank: rank}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if _, err := r.restore(&Checkpoint{Round: 2, Snaps: [][]byte{snap(0), snap(1), snap(2), snap(3)}}); err == nil {
		t.Fatal("accepted a 4-rank checkpoint in a 3-rank world")
	}
	if _, err := r.restore(&Checkpoint{Round: 2, Snaps: [][]byte{snap(0), snap(1), snap(1)}}); err == nil {
		t.Fatal("accepted a checkpoint missing this rank's snapshot")
	}
	data, err := (&Checkpoint{Round: 2, Snaps: [][]byte{snap(0), snap(1), snap(2)}}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data, CheckpointVersion+1)
	if err := new(Checkpoint).UnmarshalBinary(data); err == nil {
		t.Fatal("accepted a checkpoint from a different version")
	}
}
