package lint

import (
	"go/ast"
	"go/types"
)

// LockClass identifies one mutex in the engine's documented lock hierarchy.
// Levels increase in the direction locks may be acquired: a goroutine
// holding level N may only acquire levels > N.
type LockClass struct {
	Path  string // import path of the defining package
	Type  string // named type holding the mutex field
	Field string // the mutex (or mutex-array) field name
	Name  string // human-readable class name for diagnostics
	Level int
}

// DefaultLockOrder is the machine-readable form of the hierarchy documented
// in DESIGN.md: fold latch → table lock → catalog → table engine → merge
// registry → merge queue → pin state → chunk cache (or buffer shard) →
// pager. Edit this table and DESIGN.md together.
//
// The fold latch (tableLock.fold) is held across a whole Compact or
// Reorganize: it keeps folds of one table from overlapping while each reads
// and renders with no table lock held, so the table lock and everything
// below are taken under it. The table lock (Engine.withLock) is next: every
// catalog read-modify-write and every cursor construction runs under it, so
// it is held while everything below is acquired. Its registry mutex only
// guards the name → lock map and is released before either the latch or the
// lock is taken.
//
// The merge registry (Engine.mergeMu) publishes the pool and the merge queue
// (merger.mu) hands tables to workers. The pin state (versions.mu) guards
// the version pins and the free queue behind them, and is taken under the
// catalog lock by the catalog's DeferFree hook. None of the three may be held
// while acquiring the others out of order, and all must be released before
// descending into the pager.
var DefaultLockOrder = []LockClass{
	{Path: "rodentstore/internal/table", Type: "tableLock", Field: "fold", Name: "fold-latch", Level: 2},
	{Path: "rodentstore/internal/table", Type: "Engine", Field: "tableMu", Name: "table-lock-registry", Level: 4},
	{Path: "rodentstore/internal/table", Type: "tableLock", Field: "mu", Name: "table-lock", Level: 6},
	{Path: "rodentstore/internal/catalog", Type: "Catalog", Field: "mu", Name: "catalog", Level: 10},
	{Path: "rodentstore/internal/table", Type: "Engine", Field: "mu", Name: "table-engine", Level: 20},
	{Path: "rodentstore/internal/table", Type: "Engine", Field: "mergeMu", Name: "merge-registry", Level: 22},
	{Path: "rodentstore/internal/table", Type: "merger", Field: "mu", Name: "merge-queue", Level: 24},
	{Path: "rodentstore/internal/table", Type: "versions", Field: "mu", Name: "pin-state", Level: 26},
	{Path: "rodentstore/internal/table", Type: "chunkCache", Field: "mu", Name: "chunk-cache", Level: 30},
	{Path: "rodentstore/internal/buffer", Type: "shard", Field: "mu", Name: "buffer-shard", Level: 30},
	{Path: "rodentstore/internal/pager", Type: "File", Field: "mu", Name: "pager-meta", Level: 40},
	{Path: "rodentstore/internal/pager", Type: "File", Field: "pageLocks", Name: "pager-stripe", Level: 50},
}

// NewLockOrder builds the lockorder analyzer over a lock-class table. It
// performs a function-local walk tracking which classes are held: Lock/RLock
// on a classed mutex while a higher- or equal-level class is held is an
// out-of-order acquisition; acquiring a class already held is flagged as
// re-entrant (Go mutexes self-deadlock). Unlock/RUnlock releases; deferred
// unlocks are treated as held-to-exit, which is exact for the idiomatic
// lock-defer-unlock pattern.
//
// Classed mutexes are matched both as direct selectors (c.mu.Lock()) and
// through one level of local aliasing (lk := &p.pageLocks[i]; lk.Lock()),
// which is how the pager's stripe locks are used.
//
// rmw, when non-nil, adds the read-modify-write discipline of the lock at
// the top of the hierarchy (see GuardedRMW): mutex ordering says nothing
// about a store whose every call is individually locked.
func NewLockOrder(table []LockClass, rmw *GuardedRMW) *Analyzer {
	a := &Analyzer{
		Name: "lockorder",
		Doc:  "lock acquisitions must follow the documented hierarchy and never re-enter",
	}
	a.Run = func(pass *Pass) error {
		lo := &lockOrder{p: pass, table: table}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch fn := n.(type) {
				case *ast.FuncDecl:
					body = fn.Body
				case *ast.FuncLit:
					body = fn.Body
				}
				if body != nil {
					lo.walkFunc(body)
				}
				return true
			})
		}
		if rmw != nil {
			lo.checkRMW(rmw)
		}
		return nil
	}
	return a
}

type lockOrder struct {
	p     *Pass
	table []LockClass
}

// held is the per-path lock state: acquisition counts per class index, plus
// the classes of deferred unlocks (which stay held to function exit).
type held struct {
	count []int
}

func (h *held) clone() *held {
	c := make([]int, len(h.count))
	copy(c, h.count)
	return &held{count: c}
}

func (h *held) maxLevel(table []LockClass) (int, string) {
	lvl, name := -1, ""
	for i, n := range h.count {
		if n > 0 && table[i].Level > lvl {
			lvl, name = table[i].Level, table[i].Name
		}
	}
	return lvl, name
}

// walkFunc analyzes one function body with an empty initial lock set.
// Nested function literals are handled by the outer Inspect with their own
// fresh state (a closure does not inherit its creator's locks at run time).
func (lo *lockOrder) walkFunc(body *ast.BlockStmt) {
	st := &held{count: make([]int, len(lo.table))}
	// aliases maps a local variable object to the lock class it was bound
	// to via lk := &x.fld or lk := &x.fld[i].
	aliases := make(map[types.Object]int)
	lo.walkStmts(body.List, st, aliases)
}

// walkStmts processes statements linearly; branches are walked with cloned
// state and not re-merged (each branch is checked independently, which is
// sound for ordering violations and avoids path explosion).
func (lo *lockOrder) walkStmts(list []ast.Stmt, st *held, aliases map[types.Object]int) {
	for _, s := range list {
		lo.walkStmt(s, st, aliases)
	}
}

func (lo *lockOrder) walkStmt(s ast.Stmt, st *held, aliases map[types.Object]int) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		lo.recordAliases(s, aliases)
		for _, e := range s.Rhs {
			lo.walkExprLocks(e, st, aliases, false)
		}
	case *ast.ExprStmt:
		lo.walkExprLocks(s.X, st, aliases, false)
	case *ast.DeferStmt:
		lo.walkExprLocks(s.Call, st, aliases, true)
	case *ast.GoStmt:
		// The spawned goroutine runs with its own (empty) lock set; its
		// literal body is walked by the outer Inspect.
	case *ast.IfStmt:
		if s.Init != nil {
			lo.walkStmt(s.Init, st, aliases)
		}
		lo.walkExprLocks(s.Cond, st, aliases, false)
		lo.walkStmts(s.Body.List, st.clone(), aliases)
		if s.Else != nil {
			lo.walkStmt(s.Else, st.clone(), aliases)
		}
	case *ast.BlockStmt:
		lo.walkStmts(s.List, st, aliases)
	case *ast.ForStmt:
		if s.Init != nil {
			lo.walkStmt(s.Init, st, aliases)
		}
		lo.walkStmts(s.Body.List, st.clone(), aliases)
	case *ast.RangeStmt:
		lo.walkStmts(s.Body.List, st.clone(), aliases)
	case *ast.SwitchStmt:
		if s.Init != nil {
			lo.walkStmt(s.Init, st, aliases)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				lo.walkStmts(cc.Body, st.clone(), aliases)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				lo.walkStmts(cc.Body, st.clone(), aliases)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				lo.walkStmts(cc.Body, st.clone(), aliases)
			}
		}
	case *ast.LabeledStmt:
		lo.walkStmt(s.Stmt, st, aliases)
	case *ast.ReturnStmt:
		// Deferred unlocks fire here; nothing to check.
	}
}

// recordAliases tracks lk := &x.fld / lk := &x.fld[i] bindings to classed
// mutex fields.
func (lo *lockOrder) recordAliases(as *ast.AssignStmt, aliases map[types.Object]int) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		obj := lo.p.ObjectOf(id)
		if obj == nil {
			continue
		}
		rhs := ast.Unparen(as.Rhs[i])
		if un, ok := rhs.(*ast.UnaryExpr); ok {
			rhs = ast.Unparen(un.X)
		}
		if ix, ok := rhs.(*ast.IndexExpr); ok {
			rhs = ast.Unparen(ix.X)
		}
		sel, ok := rhs.(*ast.SelectorExpr)
		if !ok {
			delete(aliases, obj) // reassigned to something unclassed
			continue
		}
		if ci, ok := lo.classOfSelector(sel); ok {
			aliases[obj] = ci
		} else {
			delete(aliases, obj)
		}
	}
}

// walkExprLocks finds Lock/RLock/Unlock/RUnlock calls in an expression and
// updates state. deferred marks calls inside a defer: unlocks are ignored
// (they hold the lock to exit) and locks are still checked (defer m.Lock()
// would be a bug anyway, but ordering still applies at exit time — rare
// enough to treat like an immediate acquisition).
func (lo *lockOrder) walkExprLocks(e ast.Expr, st *held, aliases map[types.Object]int, deferred bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closures run on their own schedule
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		op := sel.Sel.Name
		isLock := op == "Lock" || op == "RLock"
		isUnlock := op == "Unlock" || op == "RUnlock"
		if !isLock && !isUnlock {
			return true
		}
		ci, ok := lo.classOfMutexExpr(sel.X, aliases)
		if !ok {
			return true
		}
		switch {
		case isLock:
			cls := lo.table[ci]
			if st.count[ci] > 0 {
				lo.p.Reportf(call.Pos(), "re-entrant acquisition of %s lock (already held on this path)", cls.Name)
			} else if lvl, holding := st.maxLevel(lo.table); lvl >= cls.Level {
				lo.p.Reportf(call.Pos(), "lock order violation: acquiring %s (level %d) while holding %s (level %d); the hierarchy is table lock → catalog → table engine → buffer shard → pager",
					cls.Name, cls.Level, holding, lvl)
			}
			st.count[ci]++
		case isUnlock && !deferred:
			if st.count[ci] > 0 {
				st.count[ci]--
			}
		}
		return true
	})
}

// classOfMutexExpr resolves the receiver expression of a Lock/Unlock call to
// a lock class: either a selector on a classed field (x.mu, x.pageLocks[i])
// or a local alias bound earlier.
func (lo *lockOrder) classOfMutexExpr(x ast.Expr, aliases map[types.Object]int) (int, bool) {
	x = ast.Unparen(x)
	if ix, ok := x.(*ast.IndexExpr); ok {
		x = ast.Unparen(ix.X)
	}
	if id, ok := x.(*ast.Ident); ok {
		if ci, ok := aliases[lo.p.ObjectOf(id)]; ok {
			return ci, true
		}
		return 0, false
	}
	if sel, ok := x.(*ast.SelectorExpr); ok {
		return lo.classOfSelector(sel)
	}
	return 0, false
}

// classOfSelector matches x.field against the lock table by the named type
// of x (through pointers) and the field name.
func (lo *lockOrder) classOfSelector(sel *ast.SelectorExpr) (int, bool) {
	t := lo.p.TypeOf(sel.X)
	if t == nil {
		return 0, false
	}
	full := typeFullName(t)
	if full == "" {
		return 0, false
	}
	for i, cls := range lo.table {
		if sel.Sel.Name == cls.Field && pathHasSuffix(full, cls.Path+"."+cls.Type) {
			return i, true
		}
	}
	return 0, false
}
