package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicsAnalyzer enforces access-mode consistency: once any site in a
// package accesses a variable or field through sync/atomic's function-style
// API (atomic.AddInt64(&x.n, 1), atomic.LoadUint64(&v), ...), every other
// access to that location must be atomic too.  A plain read racing an
// atomic write is undefined; worse, a plain *write* mixed in silently
// breaks any single-writer discipline built on the atomics.
// Mixing a mutex into the same field is flagged with its own message: lock
// and atomic do not compose into one protection.
//
// The typed atomics (atomic.Int64 & friends) are immune by construction —
// the type system already forbids plain access — which is why the runtime
// prefers them; this analyzer exists for the function-style API, where the
// compiler offers no such guarantee.  Analysis is per package: exported
// fields atomically accessed across package boundaries are out of scope
// (none exist in this module — fields used with sync/atomic are
// unexported).
var AtomicsAnalyzer = &Analyzer{
	Name: "atomics",
	Doc:  "a location accessed via sync/atomic must never be plainly read or written, nor mutex-protected elsewhere",
	Run:  runAtomics,
}

func runAtomics(pass *Pass) error {
	// Pass 1: find every location (field or variable object) whose address
	// is taken inside a sync/atomic call, and remember the identifiers that
	// legitimately appear inside those calls.
	atomicObjs := make(map[types.Object]token.Position) // object -> first atomic site
	inAtomicCall := make(map[*ast.Ident]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicFuncCall(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				id, obj := addressedObject(pass, un.X)
				if obj == nil {
					continue
				}
				if _, seen := atomicObjs[obj]; !seen {
					atomicObjs[obj] = pass.Fset.Position(call.Pos())
				}
				inAtomicCall[id] = true
			}
			return true
		})
	}
	if len(atomicObjs) == 0 {
		return nil
	}
	// Pass 2: every other use of those objects is a finding.
	for _, f := range pass.Files {
		var funcStack []*ast.FuncDecl
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			if fd, ok := n.(*ast.FuncDecl); ok {
				funcStack = append(funcStack, fd) // no pop needed: decls are siblings
			}
			id, ok := n.(*ast.Ident)
			if !ok || inAtomicCall[id] {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			first, tracked := atomicObjs[obj]
			if !tracked {
				return true
			}
			if len(funcStack) > 0 && usesMutex(pass, funcStack[len(funcStack)-1]) {
				pass.Reportf(id.Pos(), "%s is accessed atomically at %s but mutex-protected here; pick one protection per field", id.Name, first)
				return true
			}
			pass.Reportf(id.Pos(), "plain access to %s, which is accessed via sync/atomic at %s; all access must be atomic", id.Name, first)
			return true
		})
	}
	return nil
}

// addressedObject resolves &expr to the variable or field object being
// addressed: x, x.f, s.a.b all resolve to their final object.
func addressedObject(pass *Pass, e ast.Expr) (*ast.Ident, types.Object) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x, pass.TypesInfo.Uses[x]
	case *ast.SelectorExpr:
		return x.Sel, pass.TypesInfo.Uses[x.Sel]
	case *ast.IndexExpr:
		// &arr[i]: order within an element array; track the base only if it
		// is a plain identifier (best effort — index expressions of atomic
		// slots are rare).
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			return id, pass.TypesInfo.Uses[id]
		}
	}
	return nil, nil
}

func isAtomicFuncCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
		return false
	}
	// Function-style API only: methods of the typed atomics never take the
	// caller's address expression as an argument.
	_, isFunc := obj.(*types.Func)
	return isFunc && obj.Type().(*types.Signature).Recv() == nil
}

// usesMutex reports whether fn's body contains a Lock() call — the signal
// that plain accesses within it are (believed) mutex-protected.
func usesMutex(pass *Pass, fn *ast.FuncDecl) bool {
	if fn.Body == nil {
		return false
	}
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock" {
				found = true
			}
		}
		return !found
	})
	return found
}
