// Package falseshare is the static, cross-architecture mirror of
// pad_test.go's size pins: it checks annotated struct layouts with
// go/types Sizes for BOTH amd64 and 386, so a field reorder or a
// mis-sized pad fails vet before it ever reaches a benchmark.
//
// Two directives drive it:
//
//   - //wfq:padded on a type: its size must be a multiple of the
//     64-byte cache line on every checked architecture. This is the
//     check that would have caught PR 1's 68-byte pad.Bool.
//
//   - //wfq:isolate on a struct: its hot fields must start at least a
//     full cache line apart on every checked architecture, so no two
//     of them can ever share a line (regardless of the allocation's
//     base alignment). Hot fields are the atomic-typed ones —
//     sync/atomic types, atomicx.Counter, the pad.* wrappers — plus
//     any plain field marked //wfq:hot (frequently written); an
//     atomic field marked //wfq:cold (rarely touched, e.g. a
//     diagnostics counter) is excluded. A plain //wfq:hot field is
//     written by its owner on every operation, so it must own its
//     line: it also starts a full line from every other field and
//     from both ends of the struct, where a neighbouring allocation
//     sits. The names of one //wfq:hot declaration (`next, tid int`)
//     are one unit, written together by one owner.
//
// Checking both architectures from one run matters because field sizes
// diverge: atomic.Pointer and uintptr are 8 bytes on amd64 but 4 on
// 386, so a layout that pads correctly on the host can still false-
// share on the 32-bit build.
package falseshare

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// cacheLine is the line size every layout invariant is stated
// against (pad.CacheLineSize, restated here so analyzing internal/pad
// itself has no import cycle).
const cacheLine = 64

// Analyzer checks //wfq:padded sizes and //wfq:isolate layouts under
// every architecture in Pass.ArchSizes.
var Analyzer = &analysis.Analyzer{
	Name: "falseshare",
	Doc:  "check //wfq:padded type sizes and //wfq:isolate hot-field spacing under amd64 and 386 layouts",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				// A single ungrouped spec's doc lands on the GenDecl.
				doc := ts.Doc
				if doc == nil && len(gd.Specs) == 1 {
					doc = gd.Doc
				}
				if analysis.HasDirective("padded", doc, ts.Comment) {
					checkPadded(pass, ts)
				}
				if analysis.HasDirective("isolate", doc, ts.Comment) {
					checkIsolate(pass, ts)
				}
			}
		}
	}
	return nil
}

// archNames returns the checked architectures in stable order.
func archNames(pass *analysis.Pass) []string {
	names := make([]string, 0, len(pass.ArchSizes))
	for name := range pass.ArchSizes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// sizeof computes Sizeof, absorbing the panic go/types raises on
// unsizable types (type parameters of uninstantiated generics).
func sizeof(sizes types.Sizes, t types.Type) (n int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	return sizes.Sizeof(t), nil
}

// offsetsof computes Offsetsof with the same panic absorption.
func offsetsof(sizes types.Sizes, fields []*types.Var) (offs []int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	return sizes.Offsetsof(fields), nil
}

// checkPadded verifies the type's size is a multiple of the cache line
// on every architecture.
func checkPadded(pass *analysis.Pass, ts *ast.TypeSpec) {
	obj := pass.TypesInfo.Defs[ts.Name]
	if obj == nil {
		return
	}
	for _, arch := range archNames(pass) {
		n, err := sizeof(pass.ArchSizes[arch], obj.Type())
		if err != nil {
			pass.Reportf(ts.Name.Pos(), "//wfq:padded type %s: cannot compute %s size (%v); instantiate the generic or drop the directive", ts.Name.Name, arch, err)
			return
		}
		if n%cacheLine != 0 {
			pass.Reportf(ts.Name.Pos(), "//wfq:padded type %s is %d bytes on %s, not a multiple of the %d-byte cache line", ts.Name.Name, n, arch, cacheLine)
		}
	}
}

// checkIsolate verifies every pair of hot fields starts at least a
// cache line apart on every architecture.
func checkIsolate(pass *analysis.Pass, ts *ast.TypeSpec) {
	stAst, ok := ts.Type.(*ast.StructType)
	if !ok {
		pass.Reportf(ts.Name.Pos(), "//wfq:isolate on non-struct type %s", ts.Name.Name)
		return
	}
	obj := pass.TypesInfo.Defs[ts.Name]
	if obj == nil {
		return
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}

	// Map each types.Struct field index to hot/cold, walking the AST
	// field list in parallel (one AST field may declare several names).
	// decl numbers the AST field each name comes from; plain marks the
	// names of a //wfq:hot declaration of plain (non-atomic) fields.
	hot := make([]bool, st.NumFields())
	plain := make([]bool, st.NumFields())
	decl := make([]int, st.NumFields())
	idx := 0
	for d, field := range stAst.Fields.List {
		n := len(field.Names)
		if n == 0 {
			n = 1 // embedded field
		}
		isHot := analysis.HasDirective("hot", field.Doc, field.Comment)
		isCold := analysis.HasDirective("cold", field.Doc, field.Comment)
		for i := 0; i < n && idx < st.NumFields(); i++ {
			fv := st.Field(idx)
			hot[idx] = !isCold && (isHot || isAtomicType(fv.Type()))
			plain[idx] = isHot && !isAtomicType(fv.Type())
			decl[idx] = d
			idx++
		}
	}

	fields := make([]*types.Var, st.NumFields())
	for i := range fields {
		fields[i] = st.Field(i)
	}
	for _, arch := range archNames(pass) {
		offs, err := offsetsof(pass.ArchSizes[arch], fields)
		if err != nil {
			pass.Reportf(ts.Name.Pos(), "//wfq:isolate struct %s: cannot compute %s layout (%v); instantiate the generic or drop the directive", ts.Name.Name, arch, err)
			return
		}
		size, err := sizeof(pass.ArchSizes[arch], obj.Type())
		if err != nil {
			pass.Reportf(ts.Name.Pos(), "//wfq:isolate struct %s: cannot compute %s size (%v); instantiate the generic or drop the directive", ts.Name.Name, arch, err)
			return
		}
		prev := -1
		for i := range fields {
			if !hot[i] {
				continue
			}
			if plain[i] && (i == 0 || decl[i-1] != decl[i]) {
				checkOwnLine(pass, ts, arch, fields, offs, decl, i, size)
			}
			if prev >= 0 && plain[i] && decl[prev] == decl[i] {
				prev = i // one //wfq:hot declaration: one unit
				continue
			}
			if prev >= 0 && offs[i]-offs[prev] < cacheLine {
				pass.Reportf(ts.Name.Pos(), "//wfq:isolate struct %s: hot fields %s (offset %d) and %s (offset %d) are %d bytes apart on %s; need >= %d (insert pad.Line or mark one //wfq:cold)",
					ts.Name.Name, fields[prev].Name(), offs[prev], fields[i].Name(), offs[i], offs[i]-offs[prev], arch, cacheLine)
			}
			prev = i
		}
	}
}

// checkOwnLine reports the nearest intrusion on the line of the plain
// //wfq:hot declaration starting at field i: another non-blank field,
// or an end of the struct (a neighbouring allocation), closer than a
// cache line to its start.
func checkOwnLine(pass *analysis.Pass, ts *ast.TypeSpec, arch string, fields []*types.Var, offs []int64, decl []int, i int, size int64) {
	s := offs[i]
	near, what := s, "the struct's start"
	for j, f := range fields {
		if decl[j] == decl[i] || f.Name() == "_" {
			continue
		}
		if d := max(offs[j]-s, s-offs[j]); d < near {
			near, what = d, fmt.Sprintf("field %s (offset %d)", f.Name(), offs[j])
		}
	}
	if d := size - s; d < near {
		near, what = d, "the struct's end"
	}
	if near < cacheLine {
		pass.Reportf(ts.Name.Pos(), "//wfq:isolate struct %s: hot field %s (offset %d) is %d bytes from %s on %s; need >= %d so it owns its cache line (insert pad.Line)",
			ts.Name.Name, fields[i].Name(), s, near, what, arch, cacheLine)
	}
}

// isAtomicType reports whether t is one of the repository's recognized
// atomic word types: anything from sync/atomic, atomicx.Counter, or a
// pad.* padded wrapper.
func isAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Origin().Obj()
	if obj.Pkg() == nil {
		return false
	}
	path, name := obj.Pkg().Path(), obj.Name()
	switch {
	case path == "sync/atomic":
		return true
	case strings.HasSuffix(path, "internal/atomicx") && name == "Counter":
		return true
	case strings.HasSuffix(path, "internal/pad") && (name == "Uint64" || name == "Int64" || name == "Bool"):
		return true
	}
	return false
}
