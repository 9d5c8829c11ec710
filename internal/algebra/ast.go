// Package algebra defines RodentStore's declarative storage algebra (paper
// §3): the expression language in which a DBA or design tool describes how a
// logical table is decomposed, reordered, gridded and compressed on disk.
//
// Expressions transform the canonical row-major representation of a logical
// table. Example from the paper's introduction:
//
//	zorder(grid[y,z; 64,64](N))
//
// repartitions tuples into a 2-D matrix over attributes y and z and stores
// the cells along a z-order space-filling curve.
//
// The package provides the AST, a textual grammar with parser and printer
// (Parse ∘ String is the identity on canonical forms), schema validation,
// and the predicate language shared with the scan API.
package algebra

import (
	"fmt"
	"strings"
)

// Expr is a storage-algebra expression. Expressions are immutable trees;
// String renders the canonical textual form accepted by Parse.
type Expr interface {
	fmt.Stringer
	// Inputs returns the child expressions (empty for Base).
	Inputs() []Expr
}

// CurveKind selects a cell-ordering space-filling curve.
type CurveKind string

const (
	// CurveRowMajor stores grid cells in row-major order.
	CurveRowMajor CurveKind = "rowmajor"
	// CurveZOrder stores grid cells along a Morton (z-order) curve, the
	// paper's zorder transform.
	CurveZOrder CurveKind = "zorder"
	// CurveHilbert stores grid cells along a Hilbert curve (extension used
	// by the curve ablation).
	CurveHilbert CurveKind = "hilbert"
)

// OrderKey is one orderby key.
type OrderKey struct {
	Field string
	Desc  bool
}

func (k OrderKey) String() string {
	if k.Desc {
		return k.Field + " desc"
	}
	return k.Field
}

// GridDim is one dimension of a grid transform: the attribute to discretize
// and the number of cells along that axis. (The paper writes grid with
// per-dimension strides; cell counts are the equivalent stride =
// (max-min)/cells form, resolved against data statistics at render time.)
type GridDim struct {
	Field string
	Cells int
}

// Base references the canonical row-major nesting of the logical table
// (the paper's N): the identity layout every expression transforms.
type Base struct {
	Name string
}

// String implements Expr.
func (b *Base) String() string { return b.Name }

// Inputs implements Expr.
func (b *Base) Inputs() []Expr { return nil }

// Rows stores the input as contiguous full rows:
// [[r.A1, ..., r.An] | \r ← N].
type Rows struct {
	Input Expr
}

// String implements Expr.
func (e *Rows) String() string { return "rows(" + e.Input.String() + ")" }

// Inputs implements Expr.
func (e *Rows) Inputs() []Expr { return []Expr{e.Input} }

// Cols fully decomposes the input into one nesting per attribute — the DSM /
// column-store layout: [[r.A1|\r←N], ..., [r.An|\r←N]].
type Cols struct {
	Input Expr
}

// String implements Expr.
func (e *Cols) String() string { return "cols(" + e.Input.String() + ")" }

// Inputs implements Expr.
func (e *Cols) Inputs() []Expr { return []Expr{e.Input} }

// Project isolates a list of attributes (paper §3.5.1):
// project[Ai,...,Aj](N) ≡ [[r.Ai, ..., r.Aj] | \r ← N].
type Project struct {
	Fields []string
	Input  Expr
}

// String implements Expr.
func (e *Project) String() string {
	return "project[" + strings.Join(e.Fields, ",") + "](" + e.Input.String() + ")"
}

// Inputs implements Expr.
func (e *Project) Inputs() []Expr { return []Expr{e.Input} }

// ColGroups partitions the attributes into co-located groups, each stored as
// its own vertical partition — the paper's "a single table can be stored
// using several different schemes (e.g., a mix of rows and columns)".
type ColGroups struct {
	Groups [][]string
	Input  Expr
}

// String implements Expr.
func (e *ColGroups) String() string {
	parts := make([]string, len(e.Groups))
	for i, g := range e.Groups {
		parts[i] = strings.Join(g, ",")
	}
	return "colgroup[" + strings.Join(parts, "; ") + "](" + e.Input.String() + ")"
}

// Inputs implements Expr.
func (e *ColGroups) Inputs() []Expr { return []Expr{e.Input} }

// Select keeps the rows satisfying a condition (paper §3.5.1 selectC).
type Select struct {
	Pred  Predicate
	Input Expr
}

// String implements Expr.
func (e *Select) String() string {
	return "select[" + e.Pred.String() + "](" + e.Input.String() + ")"
}

// Inputs implements Expr.
func (e *Select) Inputs() []Expr { return []Expr{e.Input} }

// OrderBy reorders rows by the given keys (paper §3.5.3).
type OrderBy struct {
	Keys  []OrderKey
	Input Expr
}

// String implements Expr.
func (e *OrderBy) String() string {
	parts := make([]string, len(e.Keys))
	for i, k := range e.Keys {
		parts[i] = k.String()
	}
	return "orderby[" + strings.Join(parts, ",") + "](" + e.Input.String() + ")"
}

// Inputs implements Expr.
func (e *OrderBy) Inputs() []Expr { return []Expr{e.Input} }

// GroupBy clusters rows with equal key values contiguously (the paper's
// groupby clause; unlike fold it keeps rows flat).
type GroupBy struct {
	Fields []string
	Input  Expr
}

// String implements Expr.
func (e *GroupBy) String() string {
	return "groupby[" + strings.Join(e.Fields, ",") + "](" + e.Input.String() + ")"
}

// Inputs implements Expr.
func (e *GroupBy) Inputs() []Expr { return []Expr{e.Input} }

// Limit keeps the first N rows (the paper's limit clause).
type Limit struct {
	N     int
	Input Expr
}

// String implements Expr.
func (e *Limit) String() string {
	return fmt.Sprintf("limit[%d](%s)", e.N, e.Input.String())
}

// Inputs implements Expr.
func (e *Limit) Inputs() []Expr { return []Expr{e.Input} }

// Fold nests, for each distinct value of the By attributes, the co-occurring
// values of the Values attributes (paper §3.5.2):
//
//	fold_B,A(N) ≡ [r.A, [r'.B | \r' ← N, r.A = r'.A] | \r ← N]
type Fold struct {
	Values []string // B: the attributes nested under each group
	By     []string // A: the grouping attributes
	Input  Expr
}

// String implements Expr.
func (e *Fold) String() string {
	return "fold[" + strings.Join(e.Values, ",") + "; " + strings.Join(e.By, ",") + "](" + e.Input.String() + ")"
}

// Inputs implements Expr.
func (e *Fold) Inputs() []Expr { return []Expr{e.Input} }

// Unfold reverses Fold, flattening nested groups back to rows.
type Unfold struct {
	Input Expr
}

// String implements Expr.
func (e *Unfold) String() string { return "unfold(" + e.Input.String() + ")" }

// Inputs implements Expr.
func (e *Unfold) Inputs() []Expr { return []Expr{e.Input} }

// Prejoin denormalizes two tables on a join attribute (paper §3.5.2):
// prejoin_j(N1,N2) ≡ [[r1, r2] | \r1 ← N1, \r2 ← N2, r1.j = r2.j].
type Prejoin struct {
	JoinAttr    string
	Left, Right Expr
}

// String implements Expr.
func (e *Prejoin) String() string {
	return "prejoin[" + e.JoinAttr + "](" + e.Left.String() + ", " + e.Right.String() + ")"
}

// Inputs implements Expr.
func (e *Prejoin) Inputs() []Expr { return []Expr{e.Left, e.Right} }

// Compress applies a named codec to the listed attributes (paper §3.5.2;
// delta is the paper's worked example, e.g. delta[lat,lon](...)).
type Compress struct {
	Codec  string // "delta", "rle", "dict", "bitpack"
	Fields []string
	Input  Expr
}

// String implements Expr.
func (e *Compress) String() string {
	return e.Codec + "[" + strings.Join(e.Fields, ",") + "](" + e.Input.String() + ")"
}

// Inputs implements Expr.
func (e *Compress) Inputs() []Expr { return []Expr{e.Input} }

// Grid repartitions rows into an n-dimensional array of cells (paper §3.6):
// grid discretizes each listed attribute into Cells buckets and co-locates
// each cell's rows on disk, with a directory tracking cell boundaries.
type Grid struct {
	Dims  []GridDim
	Input Expr
}

// String implements Expr.
func (e *Grid) String() string {
	fields := make([]string, len(e.Dims))
	cells := make([]string, len(e.Dims))
	for i, d := range e.Dims {
		fields[i] = d.Field
		cells[i] = fmt.Sprintf("%d", d.Cells)
	}
	return "grid[" + strings.Join(fields, ",") + "; " + strings.Join(cells, ",") + "](" + e.Input.String() + ")"
}

// Inputs implements Expr.
func (e *Grid) Inputs() []Expr { return []Expr{e.Input} }

// Curve reorders the cells of a Grid along a space-filling curve. zorder is
// the paper's transform; hilbert and rowmajor support the curve ablation.
type Curve struct {
	Kind  CurveKind
	Input Expr
}

// String implements Expr.
func (e *Curve) String() string { return string(e.Kind) + "(" + e.Input.String() + ")" }

// Inputs implements Expr.
func (e *Curve) Inputs() []Expr { return []Expr{e.Input} }

// Transpose swaps the two outer nesting levels (paper §3.6):
// transpose([[1,2,3],[4,5,6]]) = [[1,4],[2,5],[3,6]].
type Transpose struct {
	Input Expr
}

// String implements Expr.
func (e *Transpose) String() string { return "transpose(" + e.Input.String() + ")" }

// Inputs implements Expr.
func (e *Transpose) Inputs() []Expr { return []Expr{e.Input} }

// Chunk splits the input into consecutive chunks of N rows (the paper's
// array chunking for storage, citing Sarawagi & Stonebraker).
type Chunk struct {
	N     int
	Input Expr
}

// String implements Expr.
func (e *Chunk) String() string {
	return fmt.Sprintf("chunk[%d](%s)", e.N, e.Input.String())
}

// Inputs implements Expr.
func (e *Chunk) Inputs() []Expr { return []Expr{e.Input} }

// CompactKind selects a run-compaction policy (leveled storage; see
// CobbleDB's composition of LSM runs in storage-algebra terms).
type CompactKind string

const (
	// CompactSizeTiered folds a level into the next once it accumulates
	// Fanout runs: each level holds up to Fanout-1 runs of similar size.
	CompactSizeTiered CompactKind = "sizetiered"
	// CompactLeveled keeps at most one run per level and folds a run into
	// the level above once it outgrows that level's target size (targets
	// grow by a factor of Fanout per level).
	CompactLeveled CompactKind = "leveled"
)

// Compact annotates a layout with a run-compaction policy: inserts
// accumulate as L0 tail batches, folds render them into organized runs, and
// compaction folds whole levels into the next — O(level) work per merge
// instead of an O(table) rewrite. Like Chunk it does not change the logical
// relation; it directs how renderings are maintained.
type Compact struct {
	Kind   CompactKind
	Fanout int
	Input  Expr
}

// String implements Expr.
func (e *Compact) String() string {
	return fmt.Sprintf("%s[%d](%s)", e.Kind, e.Fanout, e.Input.String())
}

// Inputs implements Expr.
func (e *Compact) Inputs() []Expr { return []Expr{e.Input} }

// Walk visits e and all descendants in pre-order.
func Walk(e Expr, visit func(Expr)) {
	visit(e)
	for _, c := range e.Inputs() {
		Walk(c, visit)
	}
}

// BaseOf returns the unique Base table reference of the expression, or an
// error if there are zero or several (prejoin introduces two).
func BaseOf(e Expr) (string, error) {
	var names []string
	Walk(e, func(x Expr) {
		if b, ok := x.(*Base); ok {
			names = append(names, b.Name)
		}
	})
	if len(names) == 0 {
		return "", fmt.Errorf("algebra: expression has no base table")
	}
	for _, n := range names[1:] {
		if n != names[0] {
			return "", fmt.Errorf("algebra: expression references multiple tables (%s, %s)", names[0], n)
		}
	}
	return names[0], nil
}
