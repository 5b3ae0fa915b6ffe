package analysis

// The vet-tool side of cmd/go's unitchecker protocol, built on the
// standard library (the x/tools implementation is not vendored here).
//
// `go vet -vettool=photon-lint ./...` drives the tool like this:
//
//  1. `photon-lint -V=full` — print a versioned identity line that cmd/go
//     hashes into its build cache key.
//  2. `photon-lint -flags` — print a JSON description of the tool's flags
//     so cmd/go can decide which to forward.
//  3. For every package in the build graph (dependencies included, with
//     VetxOnly=true), `photon-lint <unit>.cfg` — a JSON file describing
//     one compilation unit: its sources and the export data of its
//     dependencies (PackageFile).
//
// No analyzer exports facts, so the vetx file the tool writes to
// VetxOutput is always empty; cmd/go still expects one per unit. A
// VetxOnly dependency unit stops there, unparsed. Any other unit is
// type-checked with the compiler's export data (the same
// importer.ForCompiler(…, lookup) mechanism x/tools' unitchecker uses) and
// run through the analyzer suite, with diagnostics printed to stderr and
// exit code 2 when any are found (vet's convention for "findings, not tool
// failure").

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// unitConfig holds the fields photon-lint reads from the JSON *.cfg files
// cmd/go hands a vettool (x/tools/go/analysis/unitchecker.Config); the
// decoder skips the rest.
type unitConfig struct {
	Compiler                  string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is the photon-lint entry point. Invoked by cmd/go it speaks the
// unitchecker protocol; invoked by a human with package patterns it
// re-execs itself through `go vet -vettool`.
func Main() {
	args := os.Args[1:]
	analyzers := All()

	// Protocol handshakes from cmd/go.
	for _, arg := range args {
		switch {
		case strings.HasPrefix(arg, "-V=") || arg == "-V":
			printVersion()
			os.Exit(0)
		case arg == "-flags":
			printFlags(analyzers)
			os.Exit(0)
		}
	}

	// Analyzer-selection flags (-nondeterm, -obsgate=true, …): run only
	// the named subset when any is enabled.
	var cfgFile string
	var patterns []string
	selected := map[string]bool{}
	for _, arg := range args {
		if strings.HasPrefix(arg, "-") {
			name, val, _ := strings.Cut(strings.TrimLeft(arg, "-"), "=")
			known := false
			for _, a := range analyzers {
				if a.Name == name {
					known = true
					if val == "" || val == "true" {
						selected[name] = true
					}
				}
			}
			if !known {
				fmt.Fprintf(os.Stderr, "photon-lint: unknown flag %s\n", arg)
				os.Exit(1)
			}
			continue
		}
		if strings.HasSuffix(arg, ".cfg") {
			cfgFile = arg
		} else {
			patterns = append(patterns, arg)
		}
	}
	if len(selected) > 0 {
		var subset []*Analyzer
		for _, a := range analyzers {
			if selected[a.Name] {
				subset = append(subset, a)
			}
		}
		analyzers = subset
	}

	switch {
	case cfgFile != "":
		os.Exit(runUnit(cfgFile, analyzers))
	case len(patterns) > 0:
		os.Exit(runStandalone(patterns))
	default:
		fmt.Fprintln(os.Stderr, "usage: photon-lint [package patterns]  (or via go vet -vettool=photon-lint)")
		os.Exit(1)
	}
}

// printVersion emits the identity line cmd/go's tool-ID machinery expects
// from a "devel" tool: the last field must be a buildID; hashing the
// binary itself makes rebuilds invalidate vet's cache.
func printVersion() {
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			io.Copy(h, f)
			f.Close()
			id = fmt.Sprintf("%x", h.Sum(nil))
		}
	}
	fmt.Printf("%s version devel photon-lint buildID=%s\n", progName(), id)
}

func progName() string {
	return os.Args[0]
}

// printFlags answers cmd/go's -flags query: a JSON array describing which
// flags the tool accepts, so go vet can forward analyzer selections.
func printFlags(analyzers []*Analyzer) {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var flags []jsonFlag
	for _, a := range analyzers {
		flags = append(flags, jsonFlag{Name: a.Name, Bool: true, Usage: a.Doc})
	}
	data, _ := json.Marshal(flags)
	os.Stdout.Write(data)
	fmt.Println()
}

// runStandalone handles direct human invocation (`photon-lint ./...`) by
// delegating to go vet with this binary as the vettool.
func runStandalone(patterns []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "photon-lint: %v\n", err)
		return 1
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, patterns...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintf(os.Stderr, "photon-lint: %v\n", err)
		return 1
	}
	return 0
}

// runUnit analyzes one compilation unit described by cfgFile and returns
// the process exit code.
func runUnit(cfgFile string, analyzers []*Analyzer) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "photon-lint: %v\n", err)
		return 1
	}
	var cfg unitConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "photon-lint: parsing %s: %v\n", cfgFile, err)
		return 1
	}

	// cmd/go expects a vetx file from every unit, dependencies included.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "photon-lint: writing vetx: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly || cfg.ImportPath == "unsafe" || len(cfg.GoFiles) == 0 {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintf(os.Stderr, "photon-lint: %v\n", err)
			return 1
		}
		files = append(files, f)
	}

	pkg, info, err := typecheckUnit(fset, files, cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "photon-lint: typechecking %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			Report:   func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			fmt.Fprintf(os.Stderr, "photon-lint: %s: %v\n", a.Name, err)
			return 1
		}
	}
	if len(diags) == 0 {
		return 0
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
	}
	return 2 // vet convention: findings, not tool failure
}

// typecheckUnit type-checks the unit's files against its dependencies'
// export data, exactly as the compiler saw them.
func typecheckUnit(fset *token.FileSet, files []*ast.File, cfg unitConfig) (*types.Package, *types.Info, error) {
	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		// path is a resolved package path; cmd/go tells us which export
		// data file carries it.
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			path = importPath
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImporter.Import(path)
	})
	tc := &types.Config{
		Importer:    imp,
		Sizes:       types.SizesFor(cfg.Compiler, goarch()),
		GoVersion:   cfg.GoVersion,
		FakeImportC: true,
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	return pkg, info, err
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func goarch() string {
	if v := os.Getenv("GOARCH"); v != "" {
		return v
	}
	return runtime.GOARCH
}
