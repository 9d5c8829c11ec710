// Package lint is RodentStore's in-repo static-analysis suite: a small
// go/analysis-style framework plus repo-specific analyzers that mechanically
// enforce the engine's concurrency and resource invariants — buffer-lease
// release, pooled-batch lifetimes, the documented lock hierarchy, typed-error
// wrapping, and wall-clock-free replay paths — find exported code in
// internal/ packages that nothing outside their own tests references, and
// keep test-support packages out of non-test files.
//
// Most analyzers look at one package at a time (Analyzer.Run). One that
// needs the whole module (Analyzer.RunModule) runs after every package is
// loaded, and only when the patterns cover the whole module.
//
// The framework is deliberately self-contained (go/ast + go/types + the
// standard library's source importer) so the suite builds and runs with no
// network and no module downloads: the container bakes in the toolchain and
// nothing else, and CI must be able to run `go run ./cmd/rslint ./...`
// offline. The API mirrors golang.org/x/tools/go/analysis closely enough
// that the analyzers could be ported to a real multichecker if the
// dependency ever lands.
//
// # Suppression
//
// An intentional exception is annotated at the reported line (or the line
// directly above it) with:
//
//	//lint:allow <analyzer> <reason>
//
// The driver honors the annotation — the finding is counted as suppressed,
// not reported — and requires a non-empty reason so exceptions stay
// self-documenting.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in output and in //lint:allow comments.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run reports findings on one package through pass.Reportf.
	Run func(pass *Pass) error
	// RunModule, if set, reports findings that need every package of the
	// module at once, through a pass with Root and Pkgs set instead of one
	// package's fields. The driver calls it after the per-package loop, and
	// only when the patterns cover the whole module.
	RunModule func(pass *Pass) error
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Root (the module root directory) and Pkgs (every loaded package) are
	// set for RunModule only.
	Root string
	Pkgs []*Package

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suppressed marks findings matched by a //lint:allow annotation; the
	// driver counts them instead of failing the build.
	Suppressed bool
	// AllowReason is the annotation's reason when Suppressed.
	AllowReason string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the static type of e (nil if untypeable).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// ObjectOf resolves an identifier to its object (use or def).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Info.ObjectOf(id) }

// CalleeFunc resolves a call expression to the called *types.Func (method or
// function), nil for calls through non-named function values.
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.ObjectOf(id).(*types.Func)
	return fn
}

// allowIndex maps "file:line" to the set of analyzer names allowed there.
type allowEntry struct {
	analyzers map[string]string // analyzer -> reason
}

type allowIndex map[string]allowEntry

const allowPrefix = "lint:allow"

// buildAllowIndex scans a file's comments for //lint:allow annotations. An
// annotation covers its own line and the line directly below it (so it can
// sit either at the end of the offending line or on its own line above).
func buildAllowIndex(fset *token.FileSet, files []*ast.File) allowIndex {
	idx := make(allowIndex)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"))
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					// An allow with no reason is ignored: exceptions must
					// say why, or they fail the build like any finding.
					continue
				}
				name, reason := fields[0], strings.Join(fields[1:], " ")
				pos := fset.Position(c.Pos())
				for _, line := range []int{pos.Line, pos.Line + 1} {
					key := fmt.Sprintf("%s:%d", pos.Filename, line)
					e, ok := idx[key]
					if !ok {
						e = allowEntry{analyzers: make(map[string]string)}
						idx[key] = e
					}
					e.analyzers[name] = reason
				}
			}
		}
	}
	return idx
}

// applyAllows marks diagnostics matched by an annotation as suppressed.
func applyAllows(idx allowIndex, diags []Diagnostic) {
	for i := range diags {
		key := fmt.Sprintf("%s:%d", diags[i].Pos.Filename, diags[i].Pos.Line)
		if e, ok := idx[key]; ok {
			if reason, ok := e.analyzers[diags[i].Analyzer]; ok {
				diags[i].Suppressed = true
				diags[i].AllowReason = reason
			}
		}
	}
}

// RunAnalyzers applies each analyzer to a loaded package and returns its
// diagnostics, allow-suppression already applied, in stable position order.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	applyAllows(buildAllowIndex(pkg.Fset, pkg.Files), diags)
	sortDiagnostics(diags)
	return diags, nil
}

// runModuleAnalyzers applies each analyzer's RunModule to every loaded
// package of the module rooted at root.
func runModuleAnalyzers(root string, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		pass := &Pass{Analyzer: a, Fset: pkgs[0].Fset, Root: root, Pkgs: pkgs, diags: &diags}
		if err := a.RunModule(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		files = append(files, pkg.Files...)
	}
	applyAllows(buildAllowIndex(pkgs[0].Fset, files), diags)
	sortDiagnostics(diags)
	return diags, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}
