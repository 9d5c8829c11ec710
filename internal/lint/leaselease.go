package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// poolLeaseFunc is the fully qualified name of the buffer-lease call
// leaselease tracks. Matching is by name rather than object identity because
// the source importer type-checks its own instance of each dependency
// package.
const poolLeaseFunc = "(*rodentstore/internal/buffer.Pool).Lease"

// DefaultPinPackage is the package whose version pins leaselease tracks:
// (*versions).pin acquires one, (*versionPin).release discharges it.
const DefaultPinPackage = "rodentstore/internal/table"

// LeaseLease builds the leaselease analyzer: every buffer lease and every
// version pin taken in pinPkg must be released on all paths, including error
// returns.
//
// The acquisition shapes are l, err := pool.Lease(id) and p := v.pin(): the
// obligation is the Lease (pin) value; it is discharged by l.Release()
// (p.release()), a deferred release, returning it (ownership transfer),
// storing it in a field, or passing it to any call.
func LeaseLease(pinPkg string) *Analyzer {
	a := &Analyzer{
		Name: "leaselease",
		Doc:  "buffer leases and version pins must be released on every path, including error returns",
	}
	pinFunc := "(*" + pinPkg + ".versions).pin"
	spec := &obligSpec{
		matchAcquire: func(p *Pass, call *ast.CallExpr) (obligIdx, errIdx int, what string, ok bool) {
			switch fn := p.CalleeFunc(call); {
			case fn == nil:
			case fn.FullName() == poolLeaseFunc:
				return 0, 1, "buffer lease", true
			case fn.FullName() == pinFunc:
				return 0, -1, "version pin", true
			}
			return 0, 0, "", false
		},
		releaseMethods: map[string]bool{"Release": true, "release": true},
	}
	a.Run = func(pass *Pass) error {
		checkObligations(pass, spec)
		return nil
	}
	return a
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
