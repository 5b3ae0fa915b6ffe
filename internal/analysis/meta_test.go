package analysis_test

import (
	"fmt"
	"go/token"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// A modulePkg is one package of the module, loaded through the shared
// loader, with its package name ("main" for a command).
type modulePkg struct {
	*analysis.LoadedPackage
	name string
}

var (
	goListOnce sync.Once
	goListOut  []byte
	goListErr  error
)

// loadModule loads every package `go list ./...` names through the shared
// analysistest loader, running go list once per test binary. It fails
// unless each package's loaded files are exactly go list's GoFiles: the
// loader reads every non-test .go file of a directory, while the compiler
// builds only the files the build constraints select, and the analyzers
// must see what the compiler builds.
func loadModule(t *testing.T) (*analysis.Loader, []modulePkg) {
	t.Helper()
	ldr := analysistest.Loader(t)
	goListOnce.Do(func() {
		list := exec.Command("go", "list", "-f", `{{.ImportPath}} {{.Name}} {{join .GoFiles " "}}`, "./...")
		list.Dir = ldr.RepoRoot
		goListOut, goListErr = list.Output()
	})
	if goListErr != nil {
		t.Fatalf("go list: %v", goListErr)
	}
	var pkgs []modulePkg
	for _, line := range strings.Split(strings.TrimSpace(string(goListOut)), "\n") {
		fields := strings.Fields(line)
		path, name, goFiles := fields[0], fields[1], fields[2:]
		lp, err := ldr.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		var loaded []string
		for _, f := range lp.Files {
			loaded = append(loaded, filepath.Base(lp.Fset.Position(f.Package).Filename))
		}
		if !slices.Equal(loaded, goFiles) {
			t.Errorf("%s: loader read %v, go list builds %v", path, loaded, goFiles)
		}
		pkgs = append(pkgs, modulePkg{lp, name})
	}
	return ldr, pkgs
}

// TestLintCleanOnRepo is the acceptance pin for the whole suite: run every
// analyzer over every package in the module and require zero diagnostics,
// printed as path:line:col: analyzer: message. Any future change that
// reintroduces an ungated clock, a goroutine-order float reduction, or
// order-leaking map iteration in a deterministic package fails this test.
func TestLintCleanOnRepo(t *testing.T) {
	ldr, pkgs := loadModule(t)
	type finding struct {
		pos token.Position
		msg string
	}
	var found []finding
	for _, p := range pkgs {
		for _, a := range analysis.All() {
			diags, err := analysis.Analyze(a, p.LoadedPackage)
			if err != nil {
				t.Fatalf("%s on %s: %v", a.Name, p.Path, err)
			}
			for _, d := range diags {
				found = append(found, finding{ldr.Fset.Position(d.Pos), d.Message})
			}
		}
	}
	sort.SliceStable(found, func(i, j int) bool {
		a, b := found[i].pos, found[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	var lines []string
	for _, f := range found {
		rel, _ := filepath.Rel(ldr.RepoRoot, f.pos.Filename)
		// Every message begins with its analyzer's name.
		lines = append(lines, fmt.Sprintf("%s:%d:%d: %s", rel, f.pos.Line, f.pos.Column, f.msg))
	}
	if len(lines) > 0 {
		t.Errorf("%d diagnostics on the repo:\n%s", len(lines), strings.Join(lines, "\n"))
	}
}
