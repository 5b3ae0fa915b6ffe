package photon

// Render goldens: the cross-revision pin on stage two's bytes. Every
// render conformance matrix compares HEAD with HEAD, so a change to
// arithmetic all paths share (the radiance lookup, the tone map, the PNG
// encoder) passes them all; these hashes do not.
//
// Update protocol: a row changes only in a change whose CHANGES.md line
// says which arithmetic moved and why, never in one that claims
// bit-identity. Regenerate with
//
//	go test -run TestRenderGolden -update .
//
// and commit the diff; which rows moved (full, probe, or both) is part of
// the record.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"image"
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/probe"
	"repro/internal/view"
)

const renderGoldenPath = "testdata/render_golden.json"

// renderGoldenPhotons is the answer size behind every row: small enough
// that the four scenes solve in well under a second, the same budget the
// render conformance matrix uses.
const renderGoldenPhotons = 2000

// renderGoldenRow pins the sha256 of one PNG. Exposure 0 is the automatic
// exposure; Samples is 0 on probe rows, which do not supersample.
type renderGoldenRow struct {
	Scene    string  `json:"scene"`
	Quality  string  `json:"quality"`
	Samples  int     `json:"samples"`
	Exposure float64 `json:"exposure"`
	SHA256   string  `json:"sha256"`
}

func pngSHA256(t *testing.T, img image.Image) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePNG(&buf, img); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// computeRenderGolden renders every bundled scene at sceneCamera: the full
// path at samples 1 and 2 and the probe path, each at automatic exposure
// and at exposure 2.
func computeRenderGolden(t *testing.T) []renderGoldenRow {
	t.Helper()
	var rows []renderGoldenRow
	for _, name := range SceneNames() {
		sc, err := SceneByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(sc, core.DefaultConfig(renderGoldenPhotons))
		if err != nil {
			t.Fatal(err)
		}
		grid, err := probe.Bake(sc, res.Forest, probe.Config{})
		if err != nil {
			t.Fatal(err)
		}
		cam := sceneCamera(name)
		for _, exposure := range []float64{0, 2} {
			for _, samples := range []int{1, 2} {
				img, err := view.Render(sc, res.Forest, cam, RenderOptions{Exposure: exposure, Samples: samples})
				if err != nil {
					t.Fatal(err)
				}
				rows = append(rows, renderGoldenRow{name, "full", samples, exposure, pngSHA256(t, img)})
			}
			img, err := probe.Render(sc, grid, cam, probe.Options{Exposure: exposure})
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, renderGoldenRow{name, "probe", 0, exposure, pngSHA256(t, img)})
		}
	}
	return rows
}

// TestRenderGolden compares the PNG bytes of every bundled scene's full and
// probe frames against the committed hashes.
func TestRenderGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Elsewhere Go may fuse multiply-adds, which moves float results.
		t.Skipf("render goldens are pinned on amd64, not %s", runtime.GOARCH)
	}
	got := computeRenderGolden(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(renderGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d render golden rows to %s", len(got), renderGoldenPath)
		return
	}
	data, err := os.ReadFile(renderGoldenPath)
	if err != nil {
		t.Fatalf("reading render goldens (regenerate with -update): %v", err)
	}
	var want []renderGoldenRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	key := func(r renderGoldenRow) string {
		return fmt.Sprintf("%s/%s/samples=%d/exposure=%v", r.Scene, r.Quality, r.Samples, r.Exposure)
	}
	wantByKey := make(map[string]string, len(want))
	for _, r := range want {
		wantByKey[key(r)] = r.SHA256
	}
	for _, r := range got {
		w, ok := wantByKey[key(r)]
		switch {
		case !ok:
			t.Errorf("%s: no golden row (regenerate with -update)", key(r))
		case w != r.SHA256:
			t.Errorf("%s: PNG sha256 %s, golden %s", key(r), r.SHA256, w)
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d rows, harness renders %d (regenerate with -update)", len(want), len(got))
	}
}
