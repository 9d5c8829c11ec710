package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// poolLeaseFunc is the fully qualified name of the acquiring call
// leaselease tracks. Matching is by name rather than object identity because
// the source importer type-checks its own instance of each dependency
// package.
const poolLeaseFunc = "(*rodentstore/internal/buffer.Pool).Lease"

// LeaseLease builds the leaselease analyzer: every buffer lease must be
// released on all paths, including error returns.
//
// The acquisition shape is l, err := pool.Lease(id): the obligation is the
// Lease value; it is discharged by l.Release(), defer l.Release(), returning
// l (ownership transfer), or passing l to any call.
func LeaseLease() *Analyzer {
	a := &Analyzer{
		Name: "leaselease",
		Doc:  "buffer leases must be released on every path, including error returns",
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
	if fn := p.CalleeFunc(call); fn != nil && fn.FullName() == poolLeaseFunc {
		return 0, 1, "buffer lease", true
	}
	return 0, 0, "", false
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
