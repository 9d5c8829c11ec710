package lint

import (
	"strconv"
	"strings"
)

// DefaultTestOnlyPackages lists the packages only _test.go files may
// import: the boxed reference implementation the differential tests hold
// production to. A production import would put the reference back on the
// engine's paths, or make it one of them.
var DefaultTestOnlyPackages = []string{"rodentstore/internal/oracle"}

// NewTestOnly builds the testonly analyzer over the given package paths: no
// non-test file outside one of them (or a package below it) imports it. The
// loader reads non-test files only, so every import the analyzer sees is a
// production one.
func NewTestOnly(paths []string) *Analyzer {
	a := &Analyzer{
		Name: "testonly",
		Doc:  "test-support packages are imported by _test.go files only",
	}
	a.Run = func(pass *Pass) error {
		for _, f := range pass.Files {
			for _, spec := range f.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					continue
				}
				for _, p := range paths {
					if path == p && !inPackage(pass.Pkg.Path(), p) {
						pass.Reportf(spec.Pos(), "non-test file imports test-only package %s", path)
					}
				}
			}
		}
		return nil
	}
	return a
}

// inPackage reports whether the package at pkgPath is p or lies below it.
func inPackage(pkgPath, p string) bool {
	return pkgPath == p || strings.HasPrefix(pkgPath, p+"/")
}
