// Package linttest runs lint analyzers over fixture packages and checks
// their diagnostics against expectations embedded in the fixture source,
// following the golang.org/x/tools analysistest convention:
//
//	l, _ := pool.Lease(id) // want `may not be released`
//
// A `// want` comment holds one or more backquoted regexps; each must match
// a distinct diagnostic reported on that line, and every diagnostic must be
// matched by some expectation. Diagnostics suppressed by //lint:allow count
// as not reported — a fixture line carrying both an allow annotation and no
// want expectation therefore asserts the suppression works.
package linttest

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"rodentstore/internal/lint"
)

// FixturePath is the synthetic import path fixtures are loaded under:
// "fixture/" + the fixture directory's base name. Analyzers configured with
// package-path lists (lockorder tables, nowallclock paths) use this to
// scope themselves to a fixture.
func FixturePath(dir string) string {
	return "fixture/" + filepath.Base(dir)
}

// Run loads the fixture package in dir, applies the analyzer, and reports
// any mismatch between diagnostics and // want expectations as test
// failures.
//
//lint:allow deadexport the fixture harness the analyzers' tests run through
func Run(t *testing.T, a *lint.Analyzer, dir string) {
	t.Helper()
	loader := lint.NewLoader()
	pkg, err := loader.LoadDir(dir, FixturePath(dir))
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	diags, err := lint.RunAnalyzers(pkg, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("run %s on %s: %v", a.Name, dir, err)
	}
	match(t, diags, collectWants(t, pkg.Fset, pkg.Files))
}

// FixtureModule returns the absolute path of the fixture tree in dir and
// the import path its root resolves under, so its packages can import one
// another by their real paths.
func FixtureModule(t *testing.T, dir string) (root, modPath string) {
	t.Helper()
	root, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	modRoot, mod, err := lint.ModuleRoot(root)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(modRoot, root)
	if err != nil {
		t.Fatal(err)
	}
	return root, mod + "/" + filepath.ToSlash(rel)
}

// RunModule loads the fixture tree in dir as a module of its own, applies
// the analyzer to every package of it ("./..."), module-wide check
// included, and matches the diagnostics against the // want expectations
// of the tree's non-test files.
//
//lint:allow deadexport the fixture harness the module-wide analyzers' tests run through
func RunModule(t *testing.T, a *lint.Analyzer, dir string) {
	t.Helper()
	root, modPath := FixtureModule(t, dir)
	pkgs, diags, err := lint.Check(root, modPath, []string{"./..."}, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("run %s on %s: %v", a.Name, dir, err)
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		files = append(files, pkg.Files...)
	}
	match(t, diags, collectWants(t, pkgs[0].Fset, files))
}

// match reports any mismatch between diagnostics and expectations.
func match(t *testing.T, diags []lint.Diagnostic, wants []want) {
	t.Helper()
	var reported []lint.Diagnostic
	for _, d := range diags {
		if !d.Suppressed {
			reported = append(reported, d)
		}
	}

	matched := make([]bool, len(reported))
	for _, w := range wants {
		found := false
		for i, d := range reported {
			if matched[i] || d.Pos.Filename != w.file || d.Pos.Line != w.line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", filepath.Base(w.file), w.line, w.re)
		}
	}
	for i, d := range reported {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRE = regexp.MustCompile("`([^`]+)`")

// collectWants scans fixture comments for // want expectations.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []want {
	t.Helper()
	var wants []want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				ms := wantRE.FindAllStringSubmatch(rest, -1)
				if len(ms) == 0 {
					t.Fatalf("%s:%d: malformed want comment (expect backquoted regexps): %s", pos.Filename, pos.Line, c.Text)
				}
				for _, m := range ms {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants = append(wants, want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}
