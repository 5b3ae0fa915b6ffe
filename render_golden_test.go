package photon

// Goldens: the cross-revision pins on both stages' bytes. Every
// conformance matrix compares HEAD with HEAD, so a change to arithmetic
// all paths share passes them all; these hashes do not. The render rows
// pin stage two (the radiance lookup, the tone map, the PNG encoder); the
// forest rows pin stage one (the trace, the tally order, the split rule,
// the sectioned distributed forest and the answer-file encoding).
//
// Update protocol: a row changes only in a change whose CHANGES.md line
// says which arithmetic moved and why, never in one that claims
// bit-identity. Regenerate with
//
//	go test -run 'TestRenderGolden|TestForestGolden' -update .
//
// and commit the diff; which rows moved (full, probe, serial, dist,
// answer) is part of the record.

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

	"repro/internal/answer"
	"repro/internal/core"
	"repro/internal/dist"
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
	skipGoldenOffAMD64(t)
	checkGolden(t, renderGoldenPath, computeRenderGolden(t),
		func(r renderGoldenRow) string {
			return fmt.Sprintf("%s/%s/samples=%d/exposure=%v", r.Scene, r.Quality, r.Samples, r.Exposure)
		},
		func(r renderGoldenRow) string { return r.SHA256 })
}

const forestGoldenPath = "testdata/forest_golden.json"

// forestGoldenPhotons is large enough that the forests split deeply
// (cornell-box splits 159 times), so the rows pin the split rule and the
// tally order, not only the first few tallies.
const forestGoldenPhotons = 80000

// forestGoldenRow pins one stage-one result: Kind "serial" is the serial
// engine's forest fingerprint, "dist-r2" the fingerprint of the
// distributed engine's sectioned forest at two ranks, and "answer" the
// sha256 of the serial solution's answer-file bytes.
type forestGoldenRow struct {
	Scene   string `json:"scene"`
	Kind    string `json:"kind"`
	Photons int64  `json:"photons"`
	Value   string `json:"value"`
}

func computeForestGolden(t *testing.T) []forestGoldenRow {
	t.Helper()
	var rows []forestGoldenRow
	for _, name := range SceneNames() {
		sc, err := SceneByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(sc, core.DefaultConfig(forestGoldenPhotons))
		if err != nil {
			t.Fatal(err)
		}
		d, err := dist.Run(sc, dist.DefaultConfig(forestGoldenPhotons, 2))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := answer.FromResult(res).Save(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		rows = append(rows,
			forestGoldenRow{name, "serial", forestGoldenPhotons, fmt.Sprintf("%016x", res.Forest.Fingerprint())},
			forestGoldenRow{name, "dist-r2", forestGoldenPhotons, fmt.Sprintf("%016x", d.Forest.Fingerprint())},
			forestGoldenRow{name, "answer", forestGoldenPhotons, hex.EncodeToString(sum[:])})
	}
	return rows
}

// TestForestGolden compares every bundled scene's serial forest, two-rank
// distributed forest and answer-file bytes against the committed rows.
func TestForestGolden(t *testing.T) {
	skipGoldenOffAMD64(t)
	checkGolden(t, forestGoldenPath, computeForestGolden(t),
		func(r forestGoldenRow) string { return fmt.Sprintf("%s/%s/photons=%d", r.Scene, r.Kind, r.Photons) },
		func(r forestGoldenRow) string { return r.Value })
}

func skipGoldenOffAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		// Elsewhere Go may fuse multiply-adds, which moves float results.
		t.Skipf("goldens are pinned on amd64, not %s", runtime.GOARCH)
	}
}

// checkGolden compares got with the rows committed at path, matching rows
// by key and comparing value; with -update it rewrites the file instead.
func checkGolden[R any](t *testing.T, path string, got []R, key, value func(R) string) {
	t.Helper()
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden rows to %s", len(got), path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading goldens (regenerate with -update): %v", err)
	}
	var want []R
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	wantByKey := make(map[string]string, len(want))
	for _, r := range want {
		wantByKey[key(r)] = value(r)
	}
	for _, r := range got {
		w, ok := wantByKey[key(r)]
		switch {
		case !ok:
			t.Errorf("%s: no golden row (regenerate with -update)", key(r))
		case w != value(r):
			t.Errorf("%s: %s, golden %s", key(r), value(r), w)
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d rows, the harness computes %d (regenerate with -update)", path, len(want), len(got))
	}
}
