package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path (or a synthetic path for fixture dirs)
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of the enclosing module using only
// the standard library: imports resolve through the source importer, which
// compiles dependency packages (module-local and stdlib alike) from source.
// The importer is shared across loads so the stdlib closure is type-checked
// once per process.
type Loader struct {
	fset *token.FileSet
	imp  types.Importer
}

// NewLoader creates a loader with a fresh file set and import cache.
//
// The source importer resolves module-local import paths by shelling out to
// `go list`, which resolves relative to the process working directory — the
// loader therefore requires the working directory to be inside the target
// module (anywhere inside it; tests running in their package directory
// qualify).
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// LoadDir parses the non-test Go files of dir (honoring build constraints
// for the current platform) and type-checks them as importPath.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", importPath, err)
	}
	return &Package{Path: importPath, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

// goFilesIn lists dir's non-test Go files that match the current build
// context (so e.g. prealloc_linux.go and prealloc_other.go never collide).
func goFilesIn(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	ctxt := build.Default
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		ok, err := ctxt.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// ModuleRoot walks up from dir to the enclosing go.mod, returning the module
// root directory and module path.
func ModuleRoot(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod above %s", abs)
		}
		d = parent
	}
}

// Target is one directory to analyze with its import path.
type Target struct {
	Dir  string
	Path string
}

// expand resolves command-line patterns to package directories of the
// module rooted at root. Supported forms are "./..." (every package under
// the module root), "./dir/..." (every package under dir) and "./dir" (one
// package); all are interpreted relative to root, so `rslint ./...` means
// the same thing from any directory inside the module. whole reports
// whether some pattern covers the entire module.
func expand(root, modPath string, patterns []string) (targets []Target, whole bool, err error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	add := func(dir string) error {
		names, err := goFilesIn(dir)
		if err != nil || len(names) == 0 {
			return nil // not a package; recursive patterns skip silently
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		if !seen[path] {
			seen[path] = true
			targets = append(targets, Target{Dir: dir, Path: path})
		}
		return nil
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "./..." || pat == "..." {
			pat = "."
			recursive = true
		} else if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			pat = rest
			recursive = true
		}
		base := pat
		if pat == "." {
			base = root
		} else if !filepath.IsAbs(pat) {
			base = filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		}
		if !recursive {
			if err := add(base); err != nil {
				return nil, false, err
			}
			continue
		}
		if base == root {
			whole = true
		}
		if err := walkPackageDirs(base, add); err != nil {
			return nil, false, err
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].Path < targets[j].Path })
	return targets, whole, nil
}

// walkPackageDirs calls visit on base and every directory below it that
// the go tool would consider: testdata holds analyzer fixtures
// (deliberately violating the invariants), and dot/underscore dirs are
// ignored by the go tool.
func walkPackageDirs(base string, visit func(dir string) error) error {
	return filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		return visit(p)
	})
}
