package answer

import (
	"bytes"
	"encoding/binary"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/scenes"
)

func solve(t testing.TB, photons int64) (*scenes.Scene, *Solution) {
	t.Helper()
	s, err := scenes.Quickstart()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(s, core.DefaultConfig(photons))
	if err != nil {
		t.Fatal(err)
	}
	return s, FromResult(res)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	_, sol := solve(t, 20000)
	var buf bytes.Buffer
	if err := sol.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SceneName != sol.SceneName {
		t.Errorf("scene name %q != %q", got.SceneName, sol.SceneName)
	}
	if got.EmittedPhotons != sol.EmittedPhotons {
		t.Errorf("emitted %d != %d", got.EmittedPhotons, sol.EmittedPhotons)
	}
	if got.Forest.TotalPhotons() != sol.Forest.TotalPhotons() {
		t.Errorf("forest photons %d != %d", got.Forest.TotalPhotons(), sol.Forest.TotalPhotons())
	}
}

func TestSaveLoadFile(t *testing.T) {
	_, sol := solve(t, 5000)
	path := filepath.Join(t.TempDir(), "ans.pbf")
	if err := sol.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Forest.TotalLeaves() != sol.Forest.TotalLeaves() {
		t.Fatal("file round trip lost forest structure")
	}
}

// hostileHeader is a 70-byte answer file whose forest header claims 2³¹
// unsectioned trees and carries none.
func hostileHeader() []byte {
	b := []byte("PANS")
	b = binary.LittleEndian.AppendUint32(b, uint32(len("quickstart")))
	b = append(b, "quickstart"...)
	b = binary.LittleEndian.AppendUint64(b, 1000) // emitted photons
	b = append(b, "PBF2"...)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(3)) // SplitSigma
	for _, v := range []uint64{32, 24, 1, 1 << 31} {             // MinCount, MaxDepth, cells, trees
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// forgedTree is a 215-byte answer file holding one unsectioned tree whose
// header carries the given split rule and whose root leaf stores the
// given depth. The encoder always writes a leaf's nesting depth, 0 here.
func forgedTree(splitSigma float64, minCount, maxDepth, leafDepth int64) []byte {
	b := []byte("PANS")
	b = binary.LittleEndian.AppendUint32(b, uint32(len("quickstart")))
	b = append(b, "quickstart"...)
	b = binary.LittleEndian.AppendUint64(b, 1000) // emitted photons
	b = append(b, "PBF2"...)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(splitSigma))
	for _, v := range []int64{minCount, maxDepth, 1, 1} { // cells, trees
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	for _, v := range []float64{0, 0, 0, 0, 1, 1, 1, 2 * math.Pi} { // root lo, hi
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	b = binary.LittleEndian.AppendUint64(b, 0) // tree total
	b = append(b, 0)                           // leaf tag
	for range 1 + 3 + 4 {                      // count, power, halfLo
		b = binary.LittleEndian.AppendUint64(b, 0)
	}
	return binary.LittleEndian.AppendUint64(b, uint64(leafDepth))
}

// tamperedDepth is a one-tree answer whose root leaf claims depth −256:
// the split rule compares a leaf's depth with MaxDepth, so a loader that
// trusted it would let the tree grow 280 levels past MaxDepth 24.
func tamperedDepth() []byte { return forgedTree(3, 32, 24, -256) }

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not an answer file")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}

	// A header's tree count is a claim, not an allocation size.
	hostile := hostileHeader()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(bytes.NewReader(hostile))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("hostile header accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("loader allocated %d bytes for a %d-byte file", grew, len(hostile))
	}

	_, sol := solve(t, 500)
	var buf bytes.Buffer
	if err := sol.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(append(bytes.Clone(buf.Bytes()), 0))); err == nil {
		t.Fatal("trailing byte after the forest accepted")
	}
	// Every encoder writes patches × cells² trees.
	b := buf.Bytes()
	cellsAt := bytes.Index(b, []byte("PBF2")) + 4 + 3*8
	nTrees := binary.LittleEndian.Uint64(b[cellsAt+8:])
	binary.LittleEndian.PutUint64(b[cellsAt:], nTrees) // cells² > nTrees
	if _, err := Load(bytes.NewReader(b)); err == nil {
		t.Fatalf("%d trees accepted for %d×%d cells", nTrees, nTrees, nTrees)
	}

	// Structure and split rule are checked, not trusted: a leaf's stored
	// depth must be its nesting depth, and the header may carry only a
	// split rule some encoder could have built the trees under.
	if _, err := Load(bytes.NewReader(forgedTree(3, 32, 24, 0))); err != nil {
		t.Fatalf("well-formed one-tree answer rejected: %v", err)
	}
	for name, file := range map[string][]byte{
		"leaf depth -256": tamperedDepth(),
		"leaf depth 1":    forgedTree(3, 32, 24, 1),
		"SplitSigma 0":    forgedTree(0, 32, 24, 0),
		"SplitSigma NaN":  forgedTree(math.NaN(), 32, 24, 0),
		"SplitSigma +Inf": forgedTree(math.Inf(1), 32, 24, 0),
		"MinCount 0":      forgedTree(3, 0, 24, 0),
		"MaxDepth 0":      forgedTree(3, 32, 0, 0),
		"MaxDepth 1025":   forgedTree(3, 32, 1025, 0),
	} {
		if _, err := Load(bytes.NewReader(file)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestSceneReattach(t *testing.T) {
	_, sol := solve(t, 1000)
	sc, err := sol.Scene()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "quickstart" {
		t.Fatalf("reattached scene %q", sc.Name)
	}
	if sc.DefiningPolygons() != sol.Forest.NumTrees() {
		t.Fatal("scene/forest mismatch after reattach")
	}
}

func TestSceneReattachUnknownName(t *testing.T) {
	_, sol := solve(t, 1000)
	sol.SceneName = "no-such-scene"
	if _, err := sol.Scene(); err == nil {
		t.Fatal("unknown scene name accepted")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.pbf")); err == nil {
		t.Fatal("missing file accepted")
	}
}
