package bintree

import (
	"bytes"
	"testing"

	"repro/internal/rng"
)

// populated builds a forest with enough adversarial tallies to force
// splits at varied depths, so the round trip exercises interior nodes,
// speculative half-counts, and exact float bits.
func populated(t *testing.T) *Forest {
	t.Helper()
	f := NewForestSectioned(3, 2, DefaultConfig())
	src := rng.New(7)
	for i := 0; i < 20000; i++ {
		p := Point{
			S:     src.Float64() * src.Float64(), // skewed: drives splits
			T:     src.Float64(),
			R2:    src.Float64(),
			Theta: src.Float64() * 6.28,
		}
		f.Add(i%3, p, RGB{R: src.Float64(), G: 0.25, B: src.Float64() * 1e-3})
	}
	return f
}

func TestTreeBinaryRoundTripBitExact(t *testing.T) {
	f := populated(t)
	for i := 0; i < f.NumTrees(); i++ {
		orig := f.Tree(i)
		data, err := orig.MarshalBinary()
		if err != nil {
			t.Fatalf("tree %d encode: %v", i, err)
		}
		back := new(Tree)
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatalf("tree %d decode: %v", i, err)
		}
		single := NewForest(1, f.Config())
		single.ReplaceTree(0, orig)
		singleBack := NewForest(1, f.Config())
		singleBack.ReplaceTree(0, back)
		if singleBack.Fingerprint() != single.Fingerprint() {
			t.Fatalf("tree %d round trip changed fingerprint", i)
		}
		if back.Total() != orig.Total() || back.Leaves() != orig.Leaves() || back.Nodes() != orig.Nodes() {
			t.Fatalf("tree %d totals drifted: %d/%d leaves %d/%d nodes %d/%d",
				i, back.Total(), orig.Total(), back.Leaves(), orig.Leaves(), back.Nodes(), orig.Nodes())
		}
		again, err := back.MarshalBinary()
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("tree %d re-encodes differently (err %v)", i, err)
		}
	}
}

func TestTreeBinaryRejectsGarbage(t *testing.T) {
	data, err := populated(t).Tree(0).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"garbage":   {1, 2, 3},
		"truncated": data[:len(data)-1],
		"trailing":  append(append([]byte(nil), data...), 0),
	} {
		var tr Tree
		if err := tr.UnmarshalBinary(bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
