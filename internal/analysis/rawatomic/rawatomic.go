// Package rawatomic forbids raw sync/atomic function calls —
// atomic.LoadUint64(&x), atomic.CompareAndSwapUint64(&x, ...) and
// friends — on plain words anywhere outside internal/atomicx.
//
// The repository's contract is typed atomics only: atomic.Uint64 and
// siblings, pad.* padded wrappers, and atomicx.Counter. Typed atomics
// make 32-bit alignment a property of the type system instead of a
// field-ordering convention (a plain uint64 touched with
// atomic.LoadUint64 faults on 386 unless it happens to be 8-aligned),
// and routing every F&A through atomicx.Counter is what lets the
// emulated-F&A mode (CAS loops, for the paper's CAS-only table rows)
// and the counting mode switch implementations without touching call
// sites. internal/atomicx itself is exempt: it is the one place the
// raw functions are allowed to live.
//
// The one sanctioned way around typed atomics outside atomicx is
// atomicx.Prepublish, a plain view of an atomic word array that no
// other goroutine can reach yet. It is sound only before the array is
// published, so it may be referenced only from constructors: functions
// (or methods) named New* or new*, or ones whose doc comment carries
// //wfq:prepublish.
package rawatomic

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer flags raw sync/atomic function calls outside
// internal/atomicx.
var Analyzer = &analysis.Analyzer{
	Name: "rawatomic",
	Doc:  "forbid raw sync/atomic function calls on plain words; use typed atomics, pad.*, or atomicx.Counter",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if strings.HasSuffix(pass.Pkg.Path(), "internal/atomicx") {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			constructor := false
			if d, ok := decl.(*ast.FuncDecl); ok {
				constructor = strings.HasPrefix(d.Name.Name, "New") || strings.HasPrefix(d.Name.Name, "new") ||
					analysis.HasDirective("prepublish", d.Doc)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkRawCall(pass, n)
				case *ast.SelectorExpr:
					if !constructor && isPrepublish(pass, n) {
						pass.Reportf(n.Pos(), "atomicx.Prepublish outside a constructor; only New*/new* functions or //wfq:prepublish ones may write an array before it is published")
					}
				}
				return true
			})
		}
	}
	return nil
}

// checkRawCall reports call if it is a package-level sync/atomic
// function.
func checkRawCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return
	}
	// Methods on atomic.Uint64 etc. are the typed API; only the
	// package-level functions take raw words.
	if fn.Signature().Recv() != nil {
		return
	}
	pass.Reportf(call.Pos(), "raw atomic.%s call on a plain word; use a typed atomic (atomic.%s, pad.*, or atomicx.Counter)",
		fn.Name(), typedSuggestion(fn.Name()))
}

// isPrepublish reports whether sel names atomicx.Prepublish.
func isPrepublish(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Name() == "Prepublish" && fn.Pkg() != nil &&
		strings.HasSuffix(fn.Pkg().Path(), "internal/atomicx") && fn.Signature().Recv() == nil
}

// typedSuggestion maps a raw function name to the typed atomic that
// replaces it, for the diagnostic text.
func typedSuggestion(raw string) string {
	for _, t := range []string{"Uintptr", "Uint32", "Uint64", "Int32", "Int64", "Pointer"} {
		if strings.HasSuffix(raw, t) {
			return t
		}
	}
	return "Uint64"
}
