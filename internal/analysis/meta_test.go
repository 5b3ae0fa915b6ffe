package analysis_test

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestLintCleanOnRepo is the acceptance pin for the whole suite: build
// photon-lint and run it as a vettool over every package in the module,
// requiring zero diagnostics. Any future change that reintroduces an
// ungated clock, a goroutine-order float reduction, or order-leaking map
// iteration in a deterministic package fails this test the same way it
// fails CI.
func TestLintCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and vets the whole module; skipped in -short")
	}
	repoRoot, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "photon-lint")

	build := exec.Command("go", "build", "-o", bin, "./cmd/photon-lint")
	build.Dir = repoRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building photon-lint: %v\n%s", err, out)
	}

	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = repoRoot
	var out bytes.Buffer
	vet.Stdout = &out
	vet.Stderr = &out
	if err := vet.Run(); err != nil {
		t.Fatalf("photon-lint reported diagnostics on the repo: %v\n%s", err, out.String())
	}
}
