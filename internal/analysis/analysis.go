// Package analysis is photon-lint's analyzer suite: static checks that
// enforce the determinism contracts the conformance matrices pin at
// runtime (bit-identical forests across engines, zero-alloc disabled
// observability).
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis —
// Analyzer, Pass, Diagnostic — but is built on the standard library only
// (go/ast, go/types, go/importer), because this module carries no external
// dependencies. Analyzers run in process over packages type-checked from
// source by the Loader: testdata packages through the analysistest
// subpackage, and every package of the module through TestLintCleanOnRepo
// (`go test ./internal/analysis/`).
//
// Source directives recognized across the suite:
//
//	//photon:deterministic   file-level: the file is part of the
//	                         bit-identity contract; nondeterm and
//	                         floatreduce police it.
//	//photon:orderinvariant  line-level suppression (same line or the line
//	                         above): the flagged construct has been reviewed
//	                         and its result is independent of iteration or
//	                         scheduling order.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Directive names (matched as `//photon:<name>`; an optional explanatory
// remark may follow after a space).
const (
	DirDeterministic  = "photon:deterministic"
	DirOrderInvariant = "photon:orderinvariant"
)

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// An Analyzer is one named check. Run inspects a Pass and reports findings
// through it.
type Analyzer struct {
	Name string
	Run  func(*Pass) error
}

// A Pass is one analyzer applied to one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Report receives each finding. Analyze collects them for the
	// expectation matcher (analysistest) or the module lint.
	Report func(Diagnostic)
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Nondeterm, FloatReduce, ObsGate}
}

// commentIsDirective reports whether c is exactly `//<name>` optionally
// followed by whitespace and a remark.
func commentIsDirective(c *ast.Comment, name string) bool {
	after, ok := strings.CutPrefix(c.Text, "//"+name)
	if !ok {
		return false
	}
	return after == "" || after[0] == ' ' || after[0] == '\t'
}

// fileHasDirective reports whether any comment in f carries the directive.
func fileHasDirective(f *ast.File, name string) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if commentIsDirective(c, name) {
				return true
			}
		}
	}
	return false
}

// suppressed reports whether a //photon:orderinvariant comment sits on n's
// line or the line immediately above it in f.
func suppressed(fset *token.FileSet, f *ast.File, n ast.Node) bool {
	line := fset.Position(n.Pos()).Line
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !commentIsDirective(c, DirOrderInvariant) {
				continue
			}
			cl := fset.Position(c.Pos()).Line
			if cl == line || cl == line-1 {
				return true
			}
		}
	}
	return false
}

// walkStack walks root in source order calling fn with each node and the
// stack of its ancestors (outermost first, not including n itself).
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// calleeFunc resolves a call to the *types.Func it invokes (function,
// method, or imported function); nil for calls through function values,
// type conversions, and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// isPkgCall reports whether call invokes a package-level function named one
// of names from the package with import path pkgPath.
func isPkgCall(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) bool {
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != pkgPath {
		return false
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	for _, n := range names {
		if f.Name() == n {
			return true
		}
	}
	return false
}

// enclosingFuncBody returns the body of the innermost function declaration
// or literal in stack (nil if n is not inside a function).
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncLit:
			return fn.Body
		case *ast.FuncDecl:
			return fn.Body
		}
	}
	return nil
}

// condIsEnabledGuard reports whether cond mentions an Enabled() call or a
// nil-comparison of a *obs.Run value — the two idioms this codebase uses
// to guard observability work (`if cfg.Obs.Enabled() { … }`, `if run ==
// nil { return }`). A generic `err != nil` does not count: only the run
// handle's own nil-ness gates the disabled path.
func condIsEnabledGuard(info *types.Info, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Enabled" && len(e.Args) == 0 {
				found = true
				return false
			}
		case *ast.BinaryExpr:
			if e.Op == token.EQL || e.Op == token.NEQ {
				var other ast.Expr
				switch {
				case isNil(e.X):
					other = e.Y
				case isNil(e.Y):
					other = e.X
				default:
					return true
				}
				if t := info.TypeOf(other); t != nil && isObsRunPtr(t) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

func isNil(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// isObsRunPtr reports whether t is *obs.Run.
func isObsRunPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Run" && obj.Pkg() != nil && obj.Pkg().Path() == obsPkgPath
}

// endsInTerminator reports whether block's last statement unconditionally
// leaves the enclosing function (return or panic).
func endsInTerminator(block *ast.BlockStmt) bool {
	if len(block.List) == 0 {
		return false
	}
	switch last := block.List[len(block.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

// gatedByEnabled reports whether node n (with ancestor stack) is guarded
// by the observability-gate discipline: either lexically inside an `if`
// whose condition checks Enabled()/Run-nil-ness, or preceded in its
// innermost function body by a top-level early-return guard such as
// `if run == nil { return }` or `if !r.Enabled() { return }`.
func gatedByEnabled(info *types.Info, n ast.Node, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch anc := stack[i].(type) {
		case *ast.IfStmt:
			if condIsEnabledGuard(info, anc.Cond) {
				return true
			}
		case *ast.FuncLit, *ast.FuncDecl:
			// Don't look past the innermost function boundary for if
			// ancestors; early-return guards are checked below against
			// that same boundary.
			return hasEarlyReturnGuard(info, enclosingFuncBody(stack[:i+1]), n.Pos())
		}
	}
	return false
}

// hasEarlyReturnGuard reports whether body contains, before pos, a
// top-level `if <enabled/nil guard> { …return }` statement.
func hasEarlyReturnGuard(info *types.Info, body *ast.BlockStmt, pos token.Pos) bool {
	if body == nil {
		return false
	}
	for _, stmt := range body.List {
		if stmt.Pos() >= pos {
			break
		}
		ifs, ok := stmt.(*ast.IfStmt)
		if !ok {
			continue
		}
		if condIsEnabledGuard(info, ifs.Cond) && endsInTerminator(ifs.Body) {
			return true
		}
	}
	return false
}

// rootIdent returns the leftmost identifier of an lvalue-ish expression
// (x, x.f, x.f[i], *x.f) or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.CallExpr:
			e = v.Fun
		default:
			return nil
		}
	}
}

// exprPath renders a selector/index chain as a stable textual key
// ("rep.Spans", "c.encs[peer]"); ok is false for expressions whose value
// identity can't be captured textually (calls, composite literals, or
// indexing by a non-constant expression, which may denote different values
// on different iterations).
func exprPath(e ast.Expr) (string, bool) {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		return v.Name, true
	case *ast.SelectorExpr:
		base, ok := exprPath(v.X)
		if !ok {
			return "", false
		}
		return base + "." + v.Sel.Name, true
	case *ast.StarExpr:
		base, ok := exprPath(v.X)
		return "*" + base, ok
	}
	return "", false
}

// isFloat reports whether t's underlying type is a floating-point or
// complex type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// declaredOutside reports whether ident's object is declared outside the
// node region [from, to] — i.e. the identifier refers to state captured
// from an enclosing scope.
func declaredOutside(info *types.Info, id *ast.Ident, from, to token.Pos) bool {
	obj := info.ObjectOf(id)
	if obj == nil || obj.Pos() == token.NoPos {
		return false // unresolved or predeclared; be conservative
	}
	return obj.Pos() < from || obj.Pos() > to
}
