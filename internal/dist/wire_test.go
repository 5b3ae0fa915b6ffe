package dist

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/scenes"
)

// FuzzMessages feeds every decoder of the message set the same bytes.
// Each decoder either rejects the input or decodes a value whose
// re-encoding is byte-equal to it — the codecs are canonical, so nothing
// a peer or a file can send is silently reinterpreted. Seeds live in
// testdata/fuzz/FuzzMessages.
func FuzzMessages(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		same := func(kind string, got []byte, err error) {
			t.Helper()
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%s re-encodes to %x (err %v), input was %x", kind, got, err, data)
			}
		}
		if ts, err := appendBatch(nil, data, tallyBytes, tallyAt); err == nil {
			var b []byte
			for _, x := range ts {
				b = appendTally(b, x)
			}
			same("tally batch", b, nil)
		}
		if fs, err := appendBatch(nil, data, flightBytes, flightAt); err == nil {
			var b []byte
			for _, x := range fs {
				b = appendFlight(b, x)
			}
			same("flight batch", b, nil)
		}
		if s, err := decodeSnapshot(data); err == nil {
			b, err := appendSnapshot(nil, s)
			same("snapshot", b, err)
		}
		var ck Checkpoint
		if ck.UnmarshalBinary(data) == nil {
			b, err := ck.MarshalBinary()
			same("checkpoint", b, err)
		}
	})
}

// TestRunTrafficIsEncodedBytes pins Traffic to the wire: a two-rank run's
// byte counts are exactly its encoded bodies — 60 bytes per forwarded
// tally each way, plus rank 1's snapshot on the final gather (the traffic
// rows themselves go uncounted, being sent after the row is read).
func TestRunTrafficIsEncodedBytes(t *testing.T) {
	sc, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, DefaultConfig(20000, 2))
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot's length depends only on the trees rank 1 owned and
	// tallied into, which the assembled forest holds bit for bit.
	var owned RankSnapshot
	for unit, owner := range res.Owners {
		if owner == 1 && res.Forest.Tree(unit).Total() > 0 {
			owned.Sections = append(owned.Sections, OwnedSection{Unit: unit, Tree: res.Forest.Tree(unit)})
		}
	}
	gather, err := appendSnapshot(nil, &owned)
	if err != nil {
		t.Fatal(err)
	}
	rounds := int64(res.PerRank[0].Batches)
	wantMsgs := [][]int64{{0, rounds}, {rounds + 1, 0}}
	wantBytes := [][]int64{
		{0, tallyBytes * res.PerRank[0].TalliesForwarded},
		{tallyBytes*res.PerRank[1].TalliesForwarded + int64(len(gather)), 0},
	}
	tr := res.Traffic
	if !reflect.DeepEqual(tr.PerPair, wantMsgs) || !reflect.DeepEqual(tr.PerPairBytes, wantBytes) {
		t.Fatalf("traffic %v msgs / %v B, want %v / %v", tr.PerPair, tr.PerPairBytes, wantMsgs, wantBytes)
	}
	if total := wantBytes[0][1] + wantBytes[1][0]; tr.Bytes != total || tr.Messages != 2*rounds+1 {
		t.Fatalf("totals %d msgs / %d B, want %d / %d", tr.Messages, tr.Bytes, 2*rounds+1, total)
	}
}
