package analysis_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// reachAllowlist names the non-test functions that no root reaches but
// that stay, each with the reason it stays: an oracle or accessor that a
// test of live behaviour calls, or photon-lint's own test harness. Keys
// are "<package dir>.<func>" or "<package dir>.<Recv>.<method>".
var reachAllowlist = map[string]string{
	"internal/analysis.All":                            "lint harness: TestLintCleanOnRepo runs the suite it returns",
	"internal/analysis.Analyze":                        "lint harness: analysistest and the module lint run an analyzer through it",
	"internal/analysis.Loader.Load":                    "lint harness: type-checks testdata packages and, for the module lint, every repo package",
	"internal/analysis.Loader.dirFor":                  "lint harness: Load's import-path resolver",
	"internal/analysis.NewLoader":                      "lint harness: builds the shared loader behind analysistest and the module lint",
	"internal/analysis/analysistest.Run":               "lint harness: runs an analyzer against testdata",
	"internal/analysis/analysistest.checkExpectations": "lint harness: matches diagnostics to want comments",
	"internal/analysis/analysistest.isWantBoundary":    "lint harness: want-comment parser",
	"internal/analysis/analysistest.Loader":            "lint harness: the loader the analyzer tests, the module lint and this test share",
	"internal/analysis/analysistest.parseWants":        "lint harness: want-comment parser",
	"internal/analysis/analysistest.quotedPrefix":      "lint harness: want-comment parser",
	"internal/bintree.Forest.Cells":                    "accessor: shared and bintree tests check the sectioning",
	"internal/bintree.Forest.Config":                   "accessor: round-trip tests compare the decoded split rule",
	"internal/bintree.NewTree":                         "accessor: bintree tests grow one unsectioned tree",
	"internal/bintree.Node.Measure4":                   "oracle: leaves must partition the 4-D domain volume",
	"internal/bintree.Node.Power":                      "accessor: tests read a leaf's tallied power",
	"internal/bintree.Tree.AngularLeafFraction":        "oracle: mirrors must subdivide angle, diffuse surfaces must not",
	"internal/bintree.Tree.MaxDepth":                   "oracle: trees must stop at Config.MaxDepth",
	"internal/bintree.Tree.Nodes":                      "accessor: tests check node counts after splits and decodes",
	"internal/bintree.Tree.SplitAxisCounts":            "oracle: which axes the split rule chose",
	"internal/bintree.Tree.SumLeafCounts":              "oracle: leaf counts must sum to the tree total",
	"internal/brdf.Material.Albedo":                    "oracle: scattered energy must match the material's albedo",
	"internal/brdf.Material.Validate":                  "oracle: every built-in material must be physical",
	"internal/emitter.Emitter.TotalPower":              "oracle: emitted luminance must match the scene's power",
	"internal/geom.Scene.IntersectBrute":               "oracle: the octree walk must agree with brute force",
	"internal/geom.Scene.TotalArea":                    "oracle: scene area in geometry and core tests",
	"internal/geom.Scene.TotalEmissionPower":           "oracle: emitted power in geometry, core and scene tests",
	"internal/loadbalance.Assignment.MaxMinRatio":      "oracle: bin-packing must beat the naive split (Table 5.2)",
	"internal/mpi.NewTCPComm":                          "accessor: TCP transport tests build their mesh with it",
	"internal/rng.Source.Intn":                         "accessor: bintree and loadbalance tests draw inputs with it",
	"internal/sampler.DirectionFromCylindrical":        "oracle: inverts CylindricalCoords in its round-trip test",
	"internal/scenegen.Built.Fingerprint":              "oracle: generated scenes must match the golden corpus",
	"internal/vecmath.NewAABB":                         "accessor: AABB tests build boxes from two corners",
	"internal/vecmath.Vec3.NearEqual":                  "oracle: tolerance comparison across geometry and BRDF tests",
	"internal/view.toneChannel":                        "oracle: the tone map's threshold table must match math.Pow",
}

// TestEveryFunctionReachable fails for any function in a non-test file of
// the module that no command, example, benchmark or public API reaches
// and that reachAllowlist does not name. The roots are main of every
// main package, every init, the exported API of the root package, and
// whatever package-level initializers mention; a method also counts as
// reached when its name is a method of some interface type in the loaded
// packages or the standard library they import, since a call through
// that interface may land on it. An allowlist entry that no longer
// exists, or that has become reachable, fails the test too.
func TestEveryFunctionReachable(t *testing.T) {
	ldr, pkgs := loadModule(t)
	g := newCallGraph()
	for _, p := range pkgs {
		g.add(p.LoadedPackage, p.name == "main", p.Path == "repro")
	}
	reached := g.reach()

	var dead []string
	live := map[string]bool{}
	for fn, d := range g.decls {
		key := funcKey(fn)
		if reached[fn] {
			live[key] = true
			continue
		}
		if _, ok := reachAllowlist[key]; ok {
			live[key] = false
			continue
		}
		pos := ldr.Fset.Position(d.Pos())
		rel, _ := filepath.Rel(ldr.RepoRoot, pos.Filename)
		dead = append(dead, key+" ("+rel+")")
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("unreachable: %s", d)
	}
	for key := range reachAllowlist {
		isReached, ok := live[key]
		switch {
		case !ok:
			t.Errorf("allowlist names %s, which no longer exists", key)
		case isReached:
			t.Errorf("allowlist names %s, which is now reachable", key)
		}
	}
}

// A callGraph maps each function declared in the module to the functions
// its body mentions, called or taken as a value.
type callGraph struct {
	decls  map[*types.Func]*ast.FuncDecl
	edges  map[*types.Func][]*types.Func
	roots  []*types.Func
	ifaces map[string]bool // method names of every interface type seen
	seen   map[*types.Package]bool
}

func newCallGraph() *callGraph {
	return &callGraph{
		decls:  map[*types.Func]*ast.FuncDecl{},
		edges:  map[*types.Func][]*types.Func{},
		ifaces: map[string]bool{},
		seen:   map[*types.Package]bool{},
	}
}

// mentions returns the functions referenced anywhere under n.
func mentions(info *types.Info, n ast.Node) []*types.Func {
	var fns []*types.Func
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				fns = append(fns, fn.Origin())
			}
		}
		return true
	})
	return fns
}

func (g *callGraph) add(lp *analysis.LoadedPackage, isMain, isAPI bool) {
	for _, f := range lp.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				fn := lp.Info.Defs[d.Name].(*types.Func)
				g.decls[fn] = d
				g.edges[fn] = mentions(lp.Info, d)
				if d.Name.Name == "init" || isMain && d.Name.Name == "main" || isAPI && exportedAPI(fn) {
					g.roots = append(g.roots, fn)
				}
			case *ast.GenDecl:
				if d.Tok == token.VAR {
					g.roots = append(g.roots, mentions(lp.Info, d)...)
				}
			}
		}
	}
	for _, tv := range lp.Info.Types {
		g.addIface(tv.Type)
	}
	g.addPackage(lp.Pkg)
}

// recvNamed returns the named type whose method fn is, or nil for a
// function.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// exportedAPI reports whether fn is an exported function, or an exported
// method of an exported type.
func exportedAPI(fn *types.Func) bool {
	if !fn.Exported() {
		return false
	}
	if fn.Type().(*types.Signature).Recv() == nil {
		return true
	}
	named := recvNamed(fn)
	return named != nil && named.Obj().Exported()
}

// addPackage records the interface types declared at package level in pkg
// and, transitively, in everything it imports.
func (g *callGraph) addPackage(pkg *types.Package) {
	if g.seen[pkg] {
		return
	}
	g.seen[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			g.addIface(tn.Type())
		}
	}
	for _, imp := range pkg.Imports() {
		g.addPackage(imp)
	}
}

func (g *callGraph) addIface(t types.Type) {
	if t == nil {
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			g.ifaces[it.Method(i).Name()] = true
		}
	}
}

// reach returns every declared function the roots reach, counting a
// method as a root when an interface could dispatch to it.
func (g *callGraph) reach() map[*types.Func]bool {
	work := append([]*types.Func(nil), g.roots...)
	for fn := range g.decls {
		if fn.Type().(*types.Signature).Recv() != nil && g.ifaces[fn.Name()] {
			work = append(work, fn)
		}
	}
	reached := map[*types.Func]bool{}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		if reached[fn] {
			continue
		}
		reached[fn] = true
		work = append(work, g.edges[fn]...)
	}
	return reached
}

// funcKey names fn by its package directory within the module, its
// receiver type if it is a method, and its name.
func funcKey(fn *types.Func) string {
	pkg := strings.TrimPrefix(strings.TrimPrefix(fn.Pkg().Path(), "repro"), "/")
	if pkg == "" {
		pkg = "repro"
	}
	if named := recvNamed(fn); named != nil {
		return pkg + "." + named.Obj().Name() + "." + fn.Name()
	}
	return pkg + "." + fn.Name()
}
