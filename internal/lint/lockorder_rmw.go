package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// GuardedRMW describes a read-modify-write discipline the lockorder analyzer
// enforces alongside the mutex hierarchy: a function that reads a record out
// of a store and later writes one back must run inside the region a guard
// method brackets, or a concurrent writer's update between the two is lost.
// The store's own mutex cannot catch this — each call is individually
// locked, so the race detector is silent too.
type GuardedRMW struct {
	Path   string   // import path of the package defining the store type
	Type   string   // the store's named type
	Reads  []string // methods that fetch a record
	Writes []string // methods that replace one
	Guard  string   // method whose func-literal argument is the guarded region
}

// DefaultCatalogRMW is the engine's instance: a catalog Get followed by a
// Put/PutBuffered is only sound under the table lock Engine.withLock takes.
var DefaultCatalogRMW = &GuardedRMW{
	Path: "rodentstore/internal/catalog", Type: "Catalog",
	Reads: []string{"Get"}, Writes: []string{"Put", "PutBuffered"},
	Guard: "withLock",
}

// rmwContext is one function body (a declaration or a literal) as the RMW
// check sees it: its store reads and writes, the package functions it calls,
// and how it inherits guardedness.
type rmwContext struct {
	parent  *rmwContext // enclosing function of a literal
	decl    *types.Func // the declared function (nil for literals)
	guarded bool        // literal passed to the guard method / fixpoint result for declarations
	spawned bool        // literal of a go statement: runs outside its creator's guard
	reads   []token.Pos
	writes  []token.Pos
	calls   []*types.Func
}

func (c *rmwContext) isGuarded() bool {
	if c.decl != nil || c.guarded {
		return c.guarded
	}
	return !c.spawned && c.parent != nil && c.parent.isGuarded()
}

// checkRMW reports store writes that follow a store read in a function not
// dominated by the guard. A declared function counts as dominated when every
// use of it in the package is a call from a dominated context (helpers like
// publishTail, called only from withLock closures); one that is exported API,
// stored as a value, or called from anywhere unguarded is not.
func (lo *lockOrder) checkRMW(rmw *GuardedRMW) {
	var contexts []*rmwContext
	byDecl := make(map[*types.Func]*rmwContext)
	for _, f := range lo.p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := lo.p.ObjectOf(fd.Name).(*types.Func)
			if fn == nil || lo.isStoreMethod(fn, rmw) {
				continue // the store's own methods hold its mutex across both halves
			}
			ctx := &rmwContext{decl: fn}
			byDecl[fn] = ctx
			lo.collectRMW(fd.Body, ctx, rmw, &contexts)
		}
	}
	// Greatest fixpoint: assume every called declaration guarded, then strike
	// those with an unguarded use until nothing changes.
	uses := make(map[*types.Func][]*rmwContext)
	for _, c := range contexts {
		for _, callee := range c.calls {
			uses[callee] = append(uses[callee], c)
		}
	}
	for fn, ctx := range byDecl {
		ctx.guarded = len(uses[fn]) > 0
	}
	for changed := true; changed; {
		changed = false
		for fn, ctx := range byDecl {
			if !ctx.guarded {
				continue
			}
			for _, user := range uses[fn] {
				if !user.isGuarded() {
					ctx.guarded, changed = false, true
					break
				}
			}
		}
	}
	for _, c := range contexts {
		if c.isGuarded() || len(c.reads) == 0 {
			continue
		}
		for _, w := range c.writes {
			if c.reads[0] < w {
				lo.p.Reportf(w, "%s read-modify-write outside %s: the record read above can be replaced by a concurrent writer before this write lands (lost update)",
					rmw.Type, rmw.Guard)
			}
		}
	}
}

// collectRMW fills ctx from body and recurses into nested literals with
// contexts of their own.
func (lo *lockOrder) collectRMW(body *ast.BlockStmt, ctx *rmwContext, rmw *GuardedRMW, all *[]*rmwContext) {
	*all = append(*all, ctx)
	guardedLits := make(map[*ast.FuncLit]bool)
	spawnedLits := make(map[*ast.FuncLit]bool)
	callFuns := make(map[*ast.Ident]bool) // identifiers in call position
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				spawnedLits[lit] = true
			}
		case *ast.CallExpr:
			fn := lo.p.CalleeFunc(n)
			if fn == nil {
				return true
			}
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				callFuns[fun] = true
			case *ast.SelectorExpr:
				callFuns[fun.Sel] = true
			}
			if fn.Name() == rmw.Guard {
				for _, arg := range n.Args {
					if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						guardedLits[lit] = true
					}
				}
			}
			if lo.isStoreMethod(fn, rmw) {
				if slices.Contains(rmw.Reads, fn.Name()) {
					ctx.reads = append(ctx.reads, n.Pos())
				}
				if slices.Contains(rmw.Writes, fn.Name()) {
					ctx.writes = append(ctx.writes, n.Pos())
				}
			}
		case *ast.Ident:
			// A package function used here: a call is a use by this context,
			// anything else (method value, assignment) escapes the analysis
			// and counts as an unguarded use.
			if fn, ok := lo.p.Info.Uses[n].(*types.Func); ok && fn.Pkg() == lo.p.Pkg {
				if callFuns[n] {
					ctx.calls = append(ctx.calls, fn)
				} else {
					*all = append(*all, &rmwContext{calls: []*types.Func{fn}})
				}
			}
		case *ast.FuncLit:
			lo.collectRMW(n.Body, &rmwContext{parent: ctx, guarded: guardedLits[n], spawned: spawnedLits[n]}, rmw, all)
			return false
		}
		return true
	})
}

// isStoreMethod reports whether fn is a method of the guarded store type.
func (lo *lockOrder) isStoreMethod(fn *types.Func, rmw *GuardedRMW) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return pathHasSuffix(typeFullName(sig.Recv().Type()), rmw.Path+"."+rmw.Type)
}
