package analysis

import (
	"go/ast"
	"go/token"
)

// FloatReduce polices floating-point reductions in //photon:deterministic
// files. Float addition does not commute bit-for-bit, so the conformance
// guarantee (bit-identical forests across engines, worker counts, and
// transports) dies the moment a sum's order follows the scheduler or a
// map's iteration order:
//
//   - `+=`-style accumulation (or x = x + v) into a variable captured from
//     an enclosing scope inside a `go` func-literal body is flagged — the
//     shared/dist engines buffer per-worker and merge in photon order
//     instead.
//   - float accumulation into an outer variable inside range-over-map is
//     flagged — iterate sorted keys or merge in photon order.
//   - math.FMA is flagged anywhere in a deterministic file: it rounds once
//     where the reference engines' separate multiply-add rounds twice, so
//     its results can never be bit-identical to theirs.
//
// Reviewed constructs are suppressed with //photon:orderinvariant.
var FloatReduce = &Analyzer{
	Name: "floatreduce",
	Run:  runFloatReduce,
}

func runFloatReduce(pass *Pass) error {
	for _, f := range pass.Files {
		if !fileHasDirective(f, DirDeterministic) {
			continue
		}
		walkStack(f, func(n ast.Node, stack []ast.Node) {
			switch n := n.(type) {
			case *ast.CallExpr:
				if isPkgCall(pass.Info, n, "math", "FMA") && !suppressed(pass.Fset, f, n) {
					pass.Reportf(n.Pos(), "floatreduce: math.FMA rounds once where the reference engines round twice; bit-identity across engines forbids it")
				}
			case *ast.GoStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					checkGoroutineAccum(pass, f, lit)
				}
			case *ast.RangeStmt:
				checkMapRangeFloatAccum(pass, f, n)
			}
		})
	}
	return nil
}

// checkGoroutineAccum flags float accumulation inside a goroutine body
// into variables captured from the enclosing scope: the reduction order
// then depends on the schedule.
func checkGoroutineAccum(pass *Pass, f *ast.File, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if !isFloatAccum(pass, as) {
			return true
		}
		id := rootIdent(as.Lhs[0])
		if id == nil || !declaredOutside(pass.Info, id, lit.Pos(), lit.End()) {
			return true
		}
		if suppressed(pass.Fset, f, as) {
			return true
		}
		pass.Reportf(as.Pos(), "floatreduce: floating-point accumulation into captured %s inside a goroutine: reduction order follows the schedule; buffer per worker and merge in photon order", id.Name)
		return true
	})
}

// checkMapRangeFloatAccum flags float accumulation into an outer variable
// inside a range over a map.
func checkMapRangeFloatAccum(pass *Pass, f *ast.File, rng *ast.RangeStmt) {
	tv, ok := pass.Info.Types[rng.X]
	if !ok || tv.Type == nil || !isMapType(tv.Type) {
		return
	}
	if suppressed(pass.Fset, f, rng) {
		return
	}
	walkStack(rng.Body, func(n ast.Node, inner []ast.Node) {
		if enclosesFuncLit(inner) {
			return // a nested goroutine body is the GoStmt rule's domain
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || !isFloatAccum(pass, as) {
			return
		}
		if !lhsIsOuter(pass.Info, as.Lhs[0], rng) {
			return
		}
		if suppressed(pass.Fset, f, as) {
			return
		}
		id := rootIdent(as.Lhs[0])
		pass.Reportf(as.Pos(), "floatreduce: float accumulation into %s follows map iteration order; iterate sorted keys or merge in photon order", id.Name)
	})
}

// isFloatAccum reports whether as accumulates into a floating-point
// lvalue: x op= v for an arithmetic op, or x = x op … / x = … op x.
func isFloatAccum(pass *Pass, as *ast.AssignStmt) bool {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	t := pass.Info.TypeOf(as.Lhs[0])
	if t == nil || !isFloat(t) {
		return false
	}
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return true
	case token.ASSIGN:
		// x = x + v (or v + x): same accumulation spelled long-hand.
		bin, ok := ast.Unparen(as.Rhs[0]).(*ast.BinaryExpr)
		if !ok {
			return false
		}
		switch bin.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
		default:
			return false
		}
		lp, okL := exprPath(as.Lhs[0])
		if !okL {
			return false
		}
		for _, side := range []ast.Expr{bin.X, bin.Y} {
			if p, ok := exprPath(side); ok && p == lp {
				return true
			}
		}
	}
	return false
}
