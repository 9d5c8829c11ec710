package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// DeadExport builds the deadexport analyzer: an exported identifier
// declared in a non-test file under the module's internal/ tree, or an
// exported method of a type declared there, must be referenced by
// something other than its own package's tests.
//
// A reference is a use from any non-test file loaded by the run (its own
// package, the root package, cmd/, examples/, a nested module such as
// benchmark/). For a declaration under internal/oracle, the shared test
// support, a mention from a _test.go file in another package directory
// counts too. Anything else that only tests need is deleted, or allowed
// with a reason (//lint:allow deadexport). Those test files are read
// syntactically: pkg.Name mentions a package-level name, and any .Name
// mentions every method so named. A
// method also counts as referenced when its type has, by name, every
// method of an interface that names it. Matching is by name rather than
// object identity, because the source importer type-checks its own
// instance of each dependency package. When in doubt the analyzer stays
// silent: each finding must be real.
//
// The check needs every package at once, so it runs only when the
// patterns cover the whole module.
func DeadExport() *Analyzer {
	return &Analyzer{
		Name:      "deadexport",
		Doc:       "exported identifiers in internal/ packages must be referenced outside their own tests",
		RunModule: runDeadExport,
	}
}

// testSupportDir is the module directory of the shared test support: the
// one package whose exports other packages' tests keep live.
const testSupportDir = "internal/oracle"

// exportKey names a package-level identifier (recv == "") or a method of
// a named type.
type exportKey struct{ pkg, recv, name string }

type exportDecl struct {
	key   exportKey
	ident *ast.Ident
	dir   string
	// testSupport marks a declaration under testSupportDir.
	testSupport bool
	named       *types.Named // the receiver type, for methods
	// own spans the declaration itself (and, for a type, its methods):
	// references inside them do not keep it live.
	own []ast.Node
}

// implicitInterfaces are satisfied without any interface type appearing in
// the loaded code: the runtime, fmt and errors call these methods through
// interfaces of their own.
var implicitInterfaces = [][]string{{"Error"}, {"String"}, {"GoString"}, {"Format"}, {"Unwrap"}, {"Is"}, {"As"}}

func runDeadExport(pass *Pass) error {
	byKey := make(map[exportKey]*exportDecl)
	var decls []*exportDecl
	for _, pkg := range pass.Pkgs {
		rel, err := filepath.Rel(pass.Root, pkg.Dir)
		if err != nil {
			return err
		}
		if rel = filepath.ToSlash(rel); rel == "internal" || strings.HasPrefix(rel, "internal/") {
			support := rel == testSupportDir || strings.HasPrefix(rel, testSupportDir+"/")
			for _, d := range exportedDecls(pkg, byKey) {
				d.testSupport = support
				decls = append(decls, d)
			}
		}
	}
	used := make(map[exportKey]bool)
	for _, pkg := range pass.Pkgs {
		for id, obj := range pkg.Info.Uses {
			if k, ok := keyOf(obj); ok && (byKey[k] == nil || !within(byKey[k].own, id.Pos())) {
				used[k] = true
			}
		}
	}
	mentions, err := foreignTestMentions(pass)
	if err != nil {
		return err
	}
	ifaces := collectInterfaces(pass.Pkgs)
	for _, d := range decls {
		mention, name := d.key.pkg+"."+d.key.name, d.key.name
		if d.key.recv != "" {
			mention, name = "."+d.key.name, d.key.recv+"."+d.key.name
		}
		if used[d.key] || d.testSupport && mentionedElsewhere(mentions[mention], d.dir) || satisfiesNamingInterface(d, ifaces) {
			continue
		}
		pass.Reportf(d.ident.Pos(), "exported %s is referenced only by its own package's tests, if at all", name)
	}
	return nil
}

// exportedDecls lists pkg's exported package-level identifiers and the
// exported methods of its named types, indexing them in byKey.
func exportedDecls(pkg *Package, byKey map[exportKey]*exportDecl) []*exportDecl {
	var decls []*exportDecl
	var methods []*exportDecl // exported or not: each is its type's own span
	add := func(id *ast.Ident, own ast.Node) {
		k, ok := keyOf(pkg.Info.Defs[id])
		if !ok {
			return
		}
		d := &exportDecl{key: k, ident: id, dir: pkg.Dir, own: []ast.Node{own}}
		if k.recv != "" {
			d.named = recvNamed(pkg.Info.Defs[id].(*types.Func))
			methods = append(methods, d)
		}
		if id.IsExported() {
			decls = append(decls, d)
			byKey[k] = d
		}
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				add(decl.Name, decl)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, spec)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id, spec)
						}
					}
				}
			}
		}
	}
	for _, m := range methods {
		if t := byKey[exportKey{pkg: m.key.pkg, name: m.key.recv}]; t != nil {
			t.own = append(t.own, m.own[0])
		}
	}
	return decls
}

func within(nodes []ast.Node, pos token.Pos) bool {
	for _, n := range nodes {
		if n.Pos() <= pos && pos < n.End() {
			return true
		}
	}
	return false
}

// recvNamed returns the named type a method is declared on, or nil for a
// function or an interface method.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		if _, iface := named.Underlying().(*types.Interface); !iface {
			return named.Origin()
		}
	}
	return nil
}

// keyOf names the package-level object or concrete method obj refers to.
func keyOf(obj types.Object) (exportKey, bool) {
	if obj == nil || obj.Pkg() == nil {
		return exportKey{}, false
	}
	k := exportKey{pkg: obj.Pkg().Path(), name: obj.Name()}
	switch obj := obj.(type) {
	case *types.Func:
		fn := obj.Origin()
		if named := recvNamed(fn); named != nil {
			k.recv = named.Obj().Name()
		} else if fn.Type().(*types.Signature).Recv() != nil {
			return exportKey{}, false
		}
		return k, true
	case *types.Var:
		if obj.IsField() {
			return exportKey{}, false
		}
	case *types.Const, *types.TypeName:
	default:
		return exportKey{}, false
	}
	return k, obj.Parent() == obj.Pkg().Scope()
}

// foreignTestMentions parses every _test.go file under the module root and
// records the directories that mention "path.Name" (a qualified selector)
// and ".Name" (any selector).
func foreignTestMentions(pass *Pass) (map[string][]string, error) {
	mentions := make(map[string][]string)
	note := func(k, dir string) {
		if dirs := mentions[k]; len(dirs) == 0 || dirs[len(dirs)-1] != dir {
			mentions[k] = append(dirs, dir)
		}
	}
	pkgNames := make(map[string]string)
	for _, pkg := range pass.Pkgs {
		pkgNames[pkg.Path] = pkg.Types.Name()
	}
	fset := token.NewFileSet()
	err := walkPackageDirs(pass.Root, func(dir string) error {
		tests, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			return err
		}
		for _, name := range tests {
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			imports := make(map[string]string)
			for _, spec := range f.Imports {
				path := strings.Trim(spec.Path.Value, `"`)
				local := pkgNames[path]
				if spec.Name != nil {
					local = spec.Name.Name
				} else if local == "" {
					local = path[strings.LastIndex(path, "/")+1:]
				}
				imports[local] = path
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					note("."+sel.Sel.Name, dir)
					if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
						note(imports[x.Name]+"."+sel.Sel.Name, dir)
					}
				}
				return true
			})
		}
		return nil
	})
	return mentions, err
}

func mentionedElsewhere(dirs []string, own string) bool {
	for _, dir := range dirs {
		if dir != own {
			return true
		}
	}
	return false
}

// collectInterfaces returns the method-name sets of every interface type
// the loaded code mentions (declared, used, or in the signature of
// something it uses), plus the implicit ones.
func collectInterfaces(pkgs []*Package) [][]string {
	seen := make(map[types.Type]bool)
	out := append([][]string(nil), implicitInterfaces...)
	var visit func(t types.Type)
	visit = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if iface, ok := t.Underlying().(*types.Interface); ok {
				visit(iface)
			}
		case *types.Interface:
			var names []string
			for i := 0; i < t.NumMethods(); i++ {
				names = append(names, t.Method(i).Name())
			}
			out = append(out, names)
		case *types.Map:
			visit(t.Key())
			visit(t.Elem())
		case interface{ Elem() types.Type }: // pointer, slice, array, chan
			visit(t.Elem())
		case *types.Signature:
			for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					visit(tuple.At(i).Type())
				}
			}
		case *types.TypeParam:
			visit(t.Constraint())
		}
	}
	for _, pkg := range pkgs {
		for _, tv := range pkg.Info.Types {
			visit(tv.Type)
		}
		for _, objs := range []map[*ast.Ident]types.Object{pkg.Info.Defs, pkg.Info.Uses} {
			for _, obj := range objs {
				if obj != nil {
					visit(obj.Type())
				}
			}
		}
	}
	return out
}

// satisfiesNamingInterface reports whether d is a method that some
// interface names and whose type has, by name, every method of that
// interface.
func satisfiesNamingInterface(d *exportDecl, ifaces [][]string) bool {
	if d.named == nil {
		return false
	}
	mset := types.NewMethodSet(types.NewPointer(d.named))
	have := make(map[string]bool, mset.Len())
	for i := 0; i < mset.Len(); i++ {
		have[mset.At(i).Obj().Name()] = true
	}
next:
	for _, names := range ifaces {
		named := false
		for _, n := range names {
			if !have[n] {
				continue next
			}
			named = named || n == d.key.name
		}
		if named {
			return true
		}
	}
	return false
}
