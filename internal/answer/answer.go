// Package answer implements the durable "answer file": the paper's
// simulate-once / view-many-times pipeline stores the complete radiance
// database (bin forest + provenance) on disk, and the viewer renders any
// viewpoint from it without recomputation (Figure 4.10).
package answer

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/bintree"
	"repro/internal/core"
	"repro/internal/scenes"
)

const magic = "PANS"

// Solution is a completed, viewable global illumination answer.
type Solution struct {
	// SceneName names the procedural scene the forest was computed for;
	// the viewer rebuilds the geometry from it.
	SceneName string
	// EmittedPhotons is the total emission count (radiance normalization).
	EmittedPhotons int64
	// Forest is the radiance database.
	Forest *bintree.Forest
}

// Summary is a compact digest of a solution, comparable with ==. Two
// solutions with equal summaries hold structurally identical radiance
// databases down to floating-point bits (Fingerprint is order-sensitive
// over every node's splits and tallies) — the equality the cross-engine
// conformance matrix asserts.
type Summary struct {
	SceneName      string
	EmittedPhotons int64
	Patches        int
	Trees          int
	Leaves         int
	Tallies        int64
	Fingerprint    uint64
}

// Summarize digests the solution.
func (s *Solution) Summarize() Summary {
	return Summary{
		SceneName:      s.SceneName,
		EmittedPhotons: s.EmittedPhotons,
		Patches:        s.Forest.NumPatches(),
		Trees:          s.Forest.NumTrees(),
		Leaves:         s.Forest.TotalLeaves(),
		Tallies:        s.Forest.TotalPhotons(),
		Fingerprint:    s.Forest.Fingerprint(),
	}
}

// FromResult wraps a finished simulation.
func FromResult(res *core.Result) *Solution {
	return &Solution{
		SceneName:      res.Scene.Name,
		EmittedPhotons: res.EmittedPhotons,
		Forest:         res.Forest,
	}
}

// Save writes the solution to w.
func (s *Solution) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	name := []byte(s.SceneName)
	if err := binary.Write(bw, binary.LittleEndian, int32(len(name))); err != nil {
		return err
	}
	if _, err := bw.Write(name); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, s.EmittedPhotons); err != nil {
		return err
	}
	if err := bintree.EncodeForest(bw, s.Forest); err != nil {
		return err
	}
	return bw.Flush()
}

// Load reads a solution written by Save.
func Load(r io.Reader) (*Solution, error) {
	br := bufio.NewReader(r)
	m := make([]byte, 4)
	if _, err := io.ReadFull(br, m); err != nil {
		return nil, fmt.Errorf("answer: reading magic: %w", err)
	}
	if string(m) != magic {
		return nil, fmt.Errorf("answer: bad magic %q", m)
	}
	var nameLen int32
	if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
		return nil, err
	}
	if nameLen < 0 || nameLen > 4096 {
		return nil, fmt.Errorf("answer: implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	var emitted int64
	if err := binary.Read(br, binary.LittleEndian, &emitted); err != nil {
		return nil, err
	}
	forest, err := bintree.DecodeForest(br)
	if err != nil {
		return nil, err
	}
	// Save writes nothing after the forest, so a loaded file may not
	// either. DecodeForest's bufio.NewReader(br) is br itself, so br holds
	// exactly the bytes after the forest.
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("answer: data after the forest")
	}
	return &Solution{SceneName: string(name), EmittedPhotons: emitted, Forest: forest}, nil
}

// SaveFile writes the solution to path.
func (s *Solution) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a solution from path.
func LoadFile(path string) (*Solution, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Scene rebuilds the geometry the solution was computed for: a built-in
// scene by name, or a generated scene by its canonical gen: spec (scene
// generation is deterministic, so the spec alone reconstructs the exact
// geometry the forest was computed on).
func (s *Solution) Scene() (*scenes.Scene, error) {
	ctor, err := scenes.ByName(s.SceneName)
	if err != nil {
		return nil, fmt.Errorf("answer: %w", err)
	}
	sc, err := ctor()
	if err != nil {
		return nil, err
	}
	// Compare against NumPatches, not NumTrees: the distributed engine's
	// sectioned forests carry cells² trees per defining polygon.
	if sc.DefiningPolygons() != s.Forest.NumPatches() {
		return nil, fmt.Errorf("answer: scene %q has %d polygons but forest covers %d",
			s.SceneName, sc.DefiningPolygons(), s.Forest.NumPatches())
	}
	return sc, nil
}
