package analysis

// The in-process package loader behind every analyzer run: the
// analysistest harness loads testdata packages through it, and the module
// lint (TestLintCleanOnRepo) loads every package of the module. It
// type-checks straight from source, with the standard library supplied by
// go/importer's source importer. No go/packages, no build cache — just
// enough of a loader to run analyzers with full type information.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A LoadedPackage is one type-checked package with its syntax and type
// information.
type LoadedPackage struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// A Loader resolves and type-checks packages by import path from three
// sources: the testdata/src tree (bare import paths), the enclosing repo
// (module-qualified "repro/..." paths), and the standard library
// (everything else, via the source importer). It never reads _test.go
// files: tests exercise internals single-threaded and deliberately break
// the contracts, and the suite checks production paths.
type Loader struct {
	Fset        *token.FileSet
	TestdataSrc string // testdata/src directory holding bare-path packages
	RepoRoot    string // module root directory for "repro/..." paths

	std  types.Importer
	pkgs map[string]*LoadedPackage
}

// NewLoader returns a loader rooted at the given testdata/src and repo
// directories.
func NewLoader(testdataSrc, repoRoot string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:        fset,
		TestdataSrc: testdataSrc,
		RepoRoot:    repoRoot,
		std:         importer.ForCompiler(fset, "source", nil),
		pkgs:        map[string]*LoadedPackage{},
	}
}

// dirFor maps an import path to the source directory it loads from, or ""
// for standard-library paths.
func (l *Loader) dirFor(path string) string {
	if path == "repro" || strings.HasPrefix(path, "repro/") {
		return filepath.Join(l.RepoRoot, strings.TrimPrefix(path, "repro"))
	}
	dir := filepath.Join(l.TestdataSrc, path)
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		return dir
	}
	return ""
}

// Load type-checks the package at the given import path (cached). A failed
// load is not cached, so asking again reports the same error.
func (l *Loader) Load(path string) (lp *LoadedPackage, err error) {
	if lp, ok := l.pkgs[path]; ok {
		if lp == nil {
			return nil, fmt.Errorf("import cycle through %q", path)
		}
		return lp, nil
	}
	l.pkgs[path] = nil // cycle guard until the load settles
	defer func() {
		if err != nil {
			delete(l.pkgs, path)
		} else {
			l.pkgs[path] = lp
		}
	}()

	dir := l.dirFor(path)
	if dir == "" {
		pkg, err := l.std.Import(path)
		if err != nil {
			return nil, fmt.Errorf("stdlib %q: %v", path, err)
		}
		return &LoadedPackage{Path: path, Fset: l.Fset, Pkg: pkg}, nil
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}

	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	imp := importerFunc(func(importPath string) (*types.Package, error) {
		if importPath == "unsafe" {
			return types.Unsafe, nil
		}
		dep, err := l.Load(importPath)
		if err != nil {
			return nil, err
		}
		return dep.Pkg, nil
	})
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tc := &types.Config{Importer: imp}
	pkg, err := tc.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typechecking %s: %v", path, err)
	}
	return &LoadedPackage{Path: path, Fset: l.Fset, Files: files, Pkg: pkg, Info: info}, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// Analyze runs one analyzer over a loaded package and returns its
// diagnostics.
func Analyze(a *Analyzer, lp *LoadedPackage) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer: a,
		Fset:     lp.Fset,
		Files:    lp.Files,
		Pkg:      lp.Pkg,
		Info:     lp.Info,
		Report:   func(d Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		return nil, err
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}
