package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Nondeterm polices files carrying the //photon:deterministic directive:
//
//   - time.Now / time.Since / time.Until must be gated behind the
//     observability discipline (inside an `if …Enabled()`/nil-guard block or
//     after an early-return guard) — wall clocks must never steer
//     simulation results.
//   - math/rand and math/rand/v2 may not be imported at all: every random
//     draw must flow through core.PhotonStream-style counted substreams so
//     that photon i's trajectory is a pure function of (seed, i).
//   - `range` over a map may not let iteration order leak into results:
//     sends, writer calls, order-dependent assignments, early returns
//     selecting an element, and appends that are not followed by a sort of
//     the same slice are all flagged. Float accumulation in map ranges is
//     owned by the floatreduce analyzer.
//
// A reviewed construct can be suppressed with //photon:orderinvariant on
// its line or the line above.
var Nondeterm = &Analyzer{
	Name: "nondeterm",
	Run:  runNondeterm,
}

func runNondeterm(pass *Pass) error {
	for _, f := range pass.Files {
		if !fileHasDirective(f, DirDeterministic) {
			continue
		}
		checkRandImports(pass, f)
		walkStack(f, func(n ast.Node, stack []ast.Node) {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkClockCall(pass, f, n, stack)
			case *ast.RangeStmt:
				checkMapRange(pass, f, n, stack)
			}
		})
	}
	return nil
}

func checkRandImports(pass *Pass, f *ast.File) {
	for _, imp := range f.Imports {
		switch imp.Path.Value {
		case `"math/rand"`, `"math/rand/v2"`:
			pass.Reportf(imp.Pos(), "nondeterm: %s is forbidden in a //photon:deterministic file; draw from core.PhotonStream-style counted substreams instead", imp.Path.Value)
		}
	}
}

func checkClockCall(pass *Pass, f *ast.File, call *ast.CallExpr, stack []ast.Node) {
	if !isPkgCall(pass.Info, call, "time", "Now", "Since", "Until") {
		return
	}
	if gatedByEnabled(pass.Info, call, stack) || suppressed(pass.Fset, f, call) {
		return
	}
	name := "time." + calleeFunc(pass.Info, call).Name()
	pass.Reportf(call.Pos(), "nondeterm: %s outside an Enabled() gate in a //photon:deterministic file; wall clocks must not steer results", name)
}

// checkMapRange flags statements inside a range-over-map body whose effect
// depends on iteration order.
func checkMapRange(pass *Pass, f *ast.File, rng *ast.RangeStmt, stack []ast.Node) {
	tv, ok := pass.Info.Types[rng.X]
	if !ok || tv.Type == nil || !isMapType(tv.Type) {
		return
	}
	if suppressed(pass.Fset, f, rng) {
		return
	}
	// The innermost enclosing function body bounds the sorted-after-loop
	// exemption below.
	var enclosing ast.Node = enclosingFuncBody(stack)
	if enclosing == nil {
		enclosing = f
	}
	kv := rangeVarObjects(pass.Info, rng)

	// refsKV reports whether e references the range key/value variables —
	// the data whose per-iteration identity carries the map's order.
	refsKV := func(e ast.Expr) bool {
		if e == nil || len(kv) == 0 {
			return false
		}
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := pass.Info.ObjectOf(id); obj != nil && kv[obj] {
					found = true
					return false
				}
			}
			return true
		})
		return found
	}

	walkStack(rng.Body, func(n ast.Node, inner []ast.Node) {
		// Statements inside a nested function literal run on their own
		// schedule; the goroutine case is floatreduce's domain.
		if enclosesFuncLit(inner) {
			return
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			if suppressed(pass.Fset, f, n) {
				return
			}
			pass.Reportf(n.Pos(), "nondeterm: send inside range over map: message order follows map iteration order; iterate sorted keys")
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if refsKV(res) {
					if suppressed(pass.Fset, f, n) {
						return
					}
					pass.Reportf(n.Pos(), "nondeterm: return inside range over map selects a map-order-dependent element; iterate sorted keys")
					return
				}
			}
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, f, rng, enclosing, n, refsKV)
		case *ast.CallExpr:
			if isWriterCall(pass.Info, n) && (argsRef(n, refsKV) || recvRefsKV(n, refsKV)) {
				if suppressed(pass.Fset, f, n) {
					return
				}
				pass.Reportf(n.Pos(), "nondeterm: write inside range over map emits in map iteration order; collect and sort keys first")
			}
		}
	})
}

// rangeVarObjects returns the objects of the range statement's key and
// value variables (empty for `for range m` or blank identifiers).
func rangeVarObjects(info *types.Info, rng *ast.RangeStmt) map[types.Object]bool {
	kv := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if obj := info.ObjectOf(id); obj != nil {
			kv[obj] = true
		}
	}
	return kv
}

func enclosesFuncLit(stack []ast.Node) bool {
	for _, n := range stack {
		if _, ok := n.(*ast.FuncLit); ok {
			return true
		}
	}
	return false
}

// checkMapRangeAssign flags order-dependent assignments in a map-range
// body: string concatenation into an outer variable, plain assignment of
// key/value data to an outer non-map location, and appends to an outer
// slice that is not sorted immediately after the loop.
func checkMapRangeAssign(pass *Pass, f *ast.File, rng *ast.RangeStmt, enclosing ast.Node, as *ast.AssignStmt, refsKV func(ast.Expr) bool) {
	if suppressed(pass.Fset, f, as) {
		return
	}
	switch as.Tok {
	case token.ADD_ASSIGN:
		// Float accumulation is floatreduce's finding; integers commute.
		// String += is pure order leakage.
		if len(as.Lhs) == 1 && lhsIsOuter(pass.Info, as.Lhs[0], rng) {
			if t := pass.Info.TypeOf(as.Lhs[0]); t != nil {
				if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					pass.Reportf(as.Pos(), "nondeterm: string concatenation inside range over map depends on iteration order; sort keys first")
				}
			}
		}
	case token.ASSIGN, token.DEFINE:
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) && len(as.Rhs) != 1 {
				break
			}
			rhs := as.Rhs[min(i, len(as.Rhs)-1)]
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isAppendCall(call) {
				checkMapRangeAppend(pass, rng, enclosing, as, lhs, call, refsKV)
				continue
			}
			// m2[k] = v — writing through a map index is itself
			// order-independent (same final map whatever the order).
			if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
				if t := pass.Info.TypeOf(ix.X); t != nil && isMapType(t) {
					continue
				}
			}
			if as.Tok == token.ASSIGN && lhsIsOuter(pass.Info, lhs, rng) && refsKV(rhs) {
				pass.Reportf(as.Pos(), "nondeterm: assignment inside range over map keeps whichever element iterates last; iterate sorted keys")
			}
		}
	}
}

// checkMapRangeAppend flags `s = append(s, …)` in a map-range body unless
// the same slice is sorted after the loop in the same function — the
// canonical collect-then-sort idiom stays legal.
func checkMapRangeAppend(pass *Pass, rng *ast.RangeStmt, enclosing ast.Node, as *ast.AssignStmt, lhs ast.Expr, call *ast.CallExpr, refsKV func(ast.Expr) bool) {
	if !lhsIsOuter(pass.Info, lhs, rng) {
		return
	}
	// Appending data that doesn't identify the iteration (e.g. a constant)
	// still leaks order only through length — but every real use appends
	// key/value-derived data; require it to cut noise.
	ordered := false
	for _, arg := range call.Args[1:] {
		if refsKV(arg) {
			ordered = true
		}
	}
	if !ordered {
		return
	}
	if sortedAfter(pass.Info, lhs, rng, enclosing) {
		return
	}
	path, _ := exprPath(lhs)
	if path == "" {
		path = "the slice"
	}
	pass.Reportf(as.Pos(), "nondeterm: append to %s inside range over map without sorting it afterwards; sort %s (or the keys) before use", path, path)
}

func isAppendCall(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "append" && len(call.Args) >= 2
}

// lhsIsOuter reports whether the assignment target's root variable is
// declared outside the range statement (so the loop is accumulating into
// surrounding state rather than loop-local scratch).
func lhsIsOuter(info *types.Info, lhs ast.Expr, rng *ast.RangeStmt) bool {
	id := rootIdent(lhs)
	if id == nil || id.Name == "_" {
		return false
	}
	return declaredOutside(info, id, rng.Pos(), rng.End())
}

// sortedAfter reports whether, lexically after the range statement within
// enclosing (the innermost surrounding function body), a sort call is
// applied to the same lvalue path (e.g. `sort.Strings(keys)`,
// `sort.Slice(rep.Spans, …)`, `slices.Sort(keys)`).
func sortedAfter(info *types.Info, lhs ast.Expr, rng *ast.RangeStmt, enclosing ast.Node) bool {
	path, ok := exprPath(lhs)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		call, okc := n.(*ast.CallExpr)
		if !okc || call.Pos() < rng.End() || len(call.Args) == 0 {
			return true
		}
		if !isSortCall(info, call) {
			return true
		}
		if argPath, okp := exprPath(call.Args[0]); okp && argPath == path {
			found = true
			return false
		}
		return true
	})
	return found
}

// isSortCall reports whether call is sort.* / slices.Sort* / a method
// named Sort.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil {
		return false
	}
	switch f.Pkg().Path() {
	case "sort", "slices":
		return true
	}
	return f.Name() == "Sort"
}

// isWriterCall reports whether call transfers data to an output: a method
// whose name starts with Write/Print/Encode, fmt.Fprint*/Print*, or
// io-style WriteString helpers.
func isWriterCall(info *types.Info, call *ast.CallExpr) bool {
	f := calleeFunc(info, call)
	if f == nil {
		return false
	}
	name := f.Name()
	if f.Pkg() != nil && f.Pkg().Path() == "fmt" {
		switch {
		case len(name) >= 6 && name[:6] == "Fprint",
			len(name) >= 5 && name[:5] == "Print":
			return true
		}
	}
	for _, prefix := range []string{"Write", "Print", "Encode"} {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			return true
		}
	}
	return false
}

// argsRef reports whether any call argument satisfies refs.
func argsRef(call *ast.CallExpr, refs func(ast.Expr) bool) bool {
	for _, a := range call.Args {
		if refs(a) {
			return true
		}
	}
	return false
}

// recvRefsKV reports whether the call's receiver expression references the
// range variables (e.g. writers indexed by key).
func recvRefsKV(call *ast.CallExpr, refs func(ast.Expr) bool) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && refs(sel.X)
}
