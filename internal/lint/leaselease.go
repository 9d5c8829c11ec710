package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Fully qualified names of the acquiring calls leaselease tracks. Matching is
// by name rather than object identity because the source importer
// type-checks its own instance of each dependency package.
const (
	poolLeaseFunc = "(*rodentstore/internal/buffer.Pool).Lease"
	leasePageName = "LeasePage"
)

// LeaseLease builds the leaselease analyzer: every buffer lease and segment
// page lease must be released on all paths, including error returns.
//
// Two acquisition shapes are recognized:
//
//   - l, err := pool.Lease(id): the obligation is the Lease value; it is
//     discharged by l.Release(), defer l.Release(), returning l (ownership
//     transfer), or passing l to any call.
//   - data, release, err := x.LeasePage(id) (any method named LeasePage whose
//     results include a func() error): the obligation is the release func;
//     calling it, deferring it, or returning it discharges.
func LeaseLease() *Analyzer {
	a := &Analyzer{
		Name: "leaselease",
		Doc:  "buffer/page leases must be released on every path, including error returns",
	}
	spec := &obligSpec{
		matchAcquire:   matchLeaseAcquire,
		releaseMethods: map[string]bool{"Release": true},
	}
	a.Run = func(pass *Pass) error {
		checkObligations(pass, spec)
		return nil
	}
	return a
}

func matchLeaseAcquire(p *Pass, call *ast.CallExpr) (obligIdx, errIdx int, what string, ok bool) {
	fn := p.CalleeFunc(call)
	if fn == nil {
		return 0, 0, "", false
	}
	if fn.FullName() == poolLeaseFunc {
		return 0, 1, "buffer lease", true
	}
	if fn.Name() != leasePageName {
		return 0, 0, "", false
	}
	// Any LeasePage implementation or interface method qualifies when its
	// results include a release func() error — this covers pager-backed
	// leasers and the segment.PageLeaser interface alike.
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return 0, 0, "", false
	}
	res := sig.Results()
	relIdx := -1
	errAt := -1
	for i := 0; i < res.Len(); i++ {
		t := res.At(i).Type()
		if isReleaseFunc(t) {
			relIdx = i
		}
		if isErrorType(t) {
			errAt = i
		}
	}
	if relIdx < 0 {
		return 0, 0, "", false
	}
	return relIdx, errAt, "page lease (release func)", true
}

// isReleaseFunc reports whether t is func() error.
func isReleaseFunc(t types.Type) bool {
	sig, ok := t.Underlying().(*types.Signature)
	if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	return isErrorType(sig.Results().At(0).Type())
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error"
}

// typeFullName renders a (possibly pointer) named type as pkgpath.Name,
// shared helper for name-based matching across analyzers.
func typeFullName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// pathHasSuffix matches an import path against a configured one, tolerating
// fixture packages loaded under synthetic paths (fixture path "x/internal/vec"
// matches configured "rodentstore/internal/vec" by suffix after the module
// element).
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
