package analysis

import (
	"go/ast"
	"go/types"
)

// obsPkgPath is the import path of the observability package whose callers
// ObsGate polices.
const obsPkgPath = "repro/internal/obs"

// ObsGate polices callers of internal/obs so the disabled path stays
// zero-alloc and zero-clock (the *obs.Run contract: a nil Run must cost
// nothing). Two rules, applying in any package that imports obs:
//
//  1. A call to a *obs.Run method whose metric/span name argument is not a
//     compile-time constant must be gated behind Enabled() (or an
//     early-return nil guard): building the name allocates even when the
//     run is disabled.
//  2. A clock read (time.Now/Since/Until) whose result feeds a *obs.Run
//     consumer — directly in its arguments, or via a variable later passed
//     into one — must be gated: the disabled path must not read the clock
//     at all.
//
// Always-on *obs.Registry instrumentation (the server's request metrics)
// is deliberately out of scope; the gate discipline exists for the
// simulation spine's optional Run. Suppress a reviewed site with
// //photon:orderinvariant.
var ObsGate = &Analyzer{
	Name: "obsgate",
	Run:  runObsGate,
}

func runObsGate(pass *Pass) error {
	if pass.Pkg.Path() == obsPkgPath {
		return nil // the obs package owns the clocks it gates internally
	}
	for _, f := range pass.Files {
		if !importsPath(f, obsPkgPath) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkObsFunc(pass, f, fd)
		}
	}
	return nil
}

func importsPath(f *ast.File, path string) bool {
	for _, imp := range f.Imports {
		if imp.Path.Value == `"`+path+`"` {
			return true
		}
	}
	return false
}

func checkObsFunc(pass *Pass, f *ast.File, fd *ast.FuncDecl) {
	// Pass 1: find every obs-consuming call in the function — a method on
	// *obs.Run, or any call taking a *obs.Run argument (helpers like
	// engine.observe) — and record (a) their argument extents and (b) the
	// variables referenced inside them.
	var regions []*ast.CallExpr
	feederVars := map[types.Object]bool{}
	ast.Inspect(fd, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !isRunMethodCall(pass.Info, call) && !takesRunArg(pass.Info, call) {
			return true
		}
		regions = append(regions, call)
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := pass.Info.ObjectOf(id); obj != nil {
						feederVars[obj] = true
					}
				}
				return true
			})
		}
		return true
	})

	inObsArgs := func(n ast.Node) bool {
		for _, r := range regions {
			if r.Pos() <= n.Pos() && n.End() <= r.End() {
				return true
			}
		}
		return false
	}

	// Pass 2: enforce the two rules.
	walkStack(fd, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}

		// Rule 1: non-constant name argument to a *obs.Run method.
		if m := runMethod(pass.Info, call); m != nil && len(call.Args) > 0 {
			arg0 := call.Args[0]
			t := pass.Info.TypeOf(arg0)
			if t != nil && isStringType(t) && pass.Info.Types[arg0].Value == nil {
				if !gatedByEnabled(pass.Info, call, stack) && !suppressed(pass.Fset, f, call) {
					pass.Reportf(call.Pos(), "obsgate: non-constant name passed to (*obs.Run).%s allocates on the disabled path; pass a constant or gate with Enabled()", m.Name())
				}
			}
		}

		// Rule 2: ungated clock reads feeding an obs consumer.
		if !isPkgCall(pass.Info, call, "time", "Now", "Since", "Until") {
			return
		}
		if gatedByEnabled(pass.Info, call, stack) || suppressed(pass.Fset, f, call) {
			return
		}
		name := "time." + calleeFunc(pass.Info, call).Name()
		if inObsArgs(call) {
			pass.Reportf(call.Pos(), "obsgate: %s feeds an obs consumer without an Enabled() gate; the disabled path must not read the clock", name)
			return
		}
		// One-hop dataflow: `v := time.Now()` where v is later used inside
		// an obs consumer's arguments.
		if v := assignedIdent(stack, call); v != nil {
			if obj := pass.Info.ObjectOf(v); obj != nil && feederVars[obj] {
				pass.Reportf(call.Pos(), "obsgate: %s stored in %s, which feeds an obs consumer; gate the clock read with Enabled()", name, v.Name)
			}
		}
	})
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// runMethod returns the *types.Func when call invokes a method whose
// receiver is obs.Run or *obs.Run; nil otherwise.
func runMethod(info *types.Info, call *ast.CallExpr) *types.Func {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != obsPkgPath {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Run" {
		return nil
	}
	return fn
}

func isRunMethodCall(info *types.Info, call *ast.CallExpr) bool {
	return runMethod(info, call) != nil
}

// takesRunArg reports whether any argument of call has type *obs.Run — a
// helper the Run is threaded through (e.g. engine.observe).
func takesRunArg(info *types.Info, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		t := info.TypeOf(arg)
		if t == nil {
			continue
		}
		p, ok := t.(*types.Pointer)
		if !ok {
			continue
		}
		named, ok := p.Elem().(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Name() == "Run" && obj.Pkg() != nil && obj.Pkg().Path() == obsPkgPath {
			return true
		}
	}
	return false
}

// assignedIdent returns the identifier the clock call's result is bound to
// when its direct parent is `v := call` / `v = call`; nil otherwise.
func assignedIdent(stack []ast.Node, call *ast.CallExpr) *ast.Ident {
	if len(stack) == 0 {
		return nil
	}
	as, ok := stack[len(stack)-1].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != len(as.Rhs) {
		return nil
	}
	for i, rhs := range as.Rhs {
		if ast.Unparen(rhs) == call {
			id, _ := as.Lhs[i].(*ast.Ident)
			return id
		}
	}
	return nil
}
