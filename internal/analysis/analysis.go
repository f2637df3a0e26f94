// Package analysis is the repository's static-analysis framework: the
// substrate under cmd/wfqvet and the internal/analysis/* analyzers
// that statically enforce the concurrency invariants the compiler
// cannot see (cache-line layout, typed seq-cst atomics, allocation-free
// hot paths, hoisted loop-invariant loads).
//
// It deliberately mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic, analysistest-style fixtures) so that the
// analyzers read idiomatically and a future migration onto the real
// multichecker is mechanical. The build environment for this repository
// has no module proxy access, so the framework is built on the standard
// library alone: packages are enumerated and compiled with
// `go list -export`, dependencies are imported from their gc export
// data, and target packages are type-checked from source — the same
// strategy go/packages uses, minus the dependency.
//
// # Directives
//
// Analyzers are driven by //wfq: directives (which godoc hides, like
// any //tool:directive comment):
//
//	//wfq:noalloc            func: allocation-free contract (hotalloc)
//	//wfq:allocok <reason>   func: audited amortized/startup allocation;
//	                         callable from noalloc paths, body exempt
//	//wfq:stable             field: never written after construction;
//	                         loopload flags in-loop reads (hoist them)
//	//wfq:isolate            struct: hot atomic words must sit a full
//	                         cache line apart (falseshare, amd64 + 386)
//	//wfq:hot                field: include a plain field in the
//	                         falseshare hot set (frequently written);
//	                         it must also own its line, a full line
//	                         from every other field and both ends
//	//wfq:cold               field: exclude an atomic field (rarely
//	                         touched; sharing a line is fine)
//	//wfq:padded             type: size must be a multiple of the cache
//	                         line on amd64 AND 386 (falseshare)
//	//wfq:prepublish         func: a constructor not named New*/new*;
//	                         may call atomicx.Prepublish (rawatomic)
//	//wfq:ignore <analyzer> [reason]   line suppression
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one repo-specific check, in the shape of
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //wfq:ignore suppressions.
	Name string
	// Doc is the one-paragraph description `wfqvet -help` prints.
	Doc string
	// Run executes the analyzer over one type-checked package,
	// reporting findings through pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer with one type-checked package and the
// sinks to report against, mirroring analysis.Pass.
type Pass struct {
	// Analyzer is the analyzer this pass executes.
	Analyzer *Analyzer
	// Fset maps positions for Files.
	Fset *token.FileSet
	// Files holds the package's parsed syntax (with comments).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's results for Files.
	TypesInfo *types.Info
	// Sizes gives the target architecture's sizing (the GOARCH the
	// load ran under); ArchSizes lists every architecture a layout
	// check must hold on.
	Sizes types.Sizes
	// ArchSizes maps architecture name to its sizing model. Layout
	// analyzers (falseshare) check every entry so an amd64 run still
	// guards the 386 layout.
	ArchSizes map[string]types.Sizes
	// Index exposes the cross-package annotation index built over
	// every loaded package (hotalloc's whole-path call rule needs to
	// see annotations on callees in other packages).
	Index *Index

	diags   *[]Diagnostic
	ignores ignoreMap
}

// A Diagnostic is one reported finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer names the analyzer that fired.
	Analyzer string
	// Message describes the finding.
	Message string
}

// String formats the diagnostic the way go vet does.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos unless a //wfq:ignore suppression
// for this analyzer sits on the same line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.ignores.suppressed(position, p.Analyzer.Name) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ignoreMap records, per file and line, which analyzers are suppressed
// by a //wfq:ignore comment on that line.
type ignoreMap map[string]map[int]map[string]bool

var ignoreRe = regexp.MustCompile(`^//wfq:ignore\s+(\S+)`)

// buildIgnores scans every comment in the files for //wfq:ignore
// directives.
func buildIgnores(fset *token.FileSet, files []*ast.File) ignoreMap {
	m := ignoreMap{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				sub := ignoreRe.FindStringSubmatch(c.Text)
				if sub == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := m[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					m[pos.Filename] = byLine
				}
				names := byLine[pos.Line]
				if names == nil {
					names = map[string]bool{}
					byLine[pos.Line] = names
				}
				names[sub[1]] = true
			}
		}
	}
	return m
}

func (m ignoreMap) suppressed(pos token.Position, analyzer string) bool {
	names := m[pos.Filename][pos.Line]
	return names[analyzer] || names["all"]
}

// A Package is one loaded target package ready for analysis, or — when
// Types is nil — a syntax-only package loaded just so its //wfq:
// annotations reach the cross-package Index (analyzers do not run over
// syntax-only packages).
type Package struct {
	// PkgPath is the import path.
	PkgPath string
	// Fset maps positions for Syntax.
	Fset *token.FileSet
	// Syntax holds the parsed files (with comments).
	Syntax []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// TypesInfo holds the checker's results.
	TypesInfo *types.Info
	// Sizes is the sizing model the package was checked under.
	Sizes types.Sizes
}

// Run executes every analyzer over every package against the shared
// annotation index and returns all findings sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer, archSizes map[string]types.Sizes) []Diagnostic {
	index := BuildIndex(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue // annotation-only: indexed above, never analyzed
		}
		ignores := buildIgnores(pkg.Fset, pkg.Syntax)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Sizes:     pkg.Sizes,
				ArchSizes: archSizes,
				Index:     index,
				diags:     &diags,
				ignores:   ignores,
			}
			if err := a.Run(pass); err != nil {
				diags = append(diags, Diagnostic{
					Pos:      token.Position{Filename: pkg.PkgPath},
					Analyzer: a.Name,
					Message:  fmt.Sprintf("internal error: %v", err),
				})
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// DefaultArchSizes returns the sizing models every layout invariant
// must hold on: 64-bit amd64 and 32-bit 386 (the CI cross-compile
// targets with distinct alignment rules).
func DefaultArchSizes() map[string]types.Sizes {
	return map[string]types.Sizes{
		"amd64": types.SizesFor("gc", "amd64"),
		"386":   types.SizesFor("gc", "386"),
	}
}

// Directive is one parsed //wfq: directive.
type Directive struct {
	// Name is the directive verb ("noalloc", "stable", ...).
	Name string
	// Arg is everything after the verb (a reason, an analyzer name).
	Arg string
}

var directiveRe = regexp.MustCompile(`^//wfq:(\S+)\s*(.*)$`)

// ParseDirectives extracts the //wfq: directives from a doc comment
// group and an optional trailing line comment.
func ParseDirectives(groups ...*ast.CommentGroup) []Directive {
	var ds []Directive
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if sub := directiveRe.FindStringSubmatch(c.Text); sub != nil {
				ds = append(ds, Directive{Name: sub[1], Arg: strings.TrimSpace(sub[2])})
			}
		}
	}
	return ds
}

// HasDirective reports whether any of the comment groups carries the
// named //wfq: directive.
func HasDirective(name string, groups ...*ast.CommentGroup) bool {
	for _, d := range ParseDirectives(groups...) {
		if d.Name == name {
			return true
		}
	}
	return false
}
