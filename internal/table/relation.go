package table

// The row stream render lays out, in column form. A layout's steps run over
// typed column vectors and a row permutation: select compacts the
// permutation with the compiled predicate, project picks columns, limit
// truncates, orderby and groupby reorder the permutation with typed
// comparators and group ids, and the grid buckets it by cell. No row is
// boxed, except by fold and unfold: they are the paper's nesting operators,
// their List values have no native vector form, and they run through
// transforms.FoldHash/Unfold on boxed rows.

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"rodentstore/internal/algebra"
	"rodentstore/internal/layout"
	"rodentstore/internal/transforms"
	"rodentstore/internal/value"
	"rodentstore/internal/vec"
	"rodentstore/internal/zorder"
)

// relation is a row stream: typed columns (one per field of b's schema), the
// order of the stream as positions into them, and the inputs the stream was
// concatenated from.
type relation struct {
	b      *vec.Batch
	perm   []int32
	inputs []input // by ascending start
}

// input is one source of the stream: perm[start:] up to the next input's
// start.
type input struct {
	start int
	// sorted marks an organized part rendered under the layout being
	// rendered, so already in the order of its settled orderby.
	sorted bool
}

// cellRun is one grid cell's rows (or the whole stream for ungridded), as
// positions into the relation's columns, in stored order.
type cellRun struct {
	cell uint64
	rows []int32
}

// rowsRelation appends boxed rows into vectors once: the single input Load
// and Insert render.
func rowsRelation(schema *value.Schema, rows []value.Row) (*relation, error) {
	b, err := vec.FromRows(schema, rows)
	if err != nil {
		return nil, err
	}
	return &relation{b: b, perm: vec.FillSel(nil, b.Len()), inputs: []input{{}}}, nil
}

// span returns input i's range of perm.
func (r *relation) span(i int) (lo, hi int) {
	hi = len(r.perm)
	if i+1 < len(r.inputs) {
		hi = r.inputs[i+1].start
	}
	return r.inputs[i].start, hi
}

// one makes the whole stream a single, unsorted input.
func (r *relation) one() { r.inputs = []input{{}} }

// settledOrder returns the index of the orderby step an organized part of
// spec is already sorted by: the layout's last reordering step, when that is
// an orderby and no grid lays the rows out by cell afterwards; -1 if none.
func settledOrder(spec *layout.Spec) int {
	if spec.Grid != nil {
		return -1
	}
	for i := len(spec.Steps) - 1; i >= 0; i-- {
		switch spec.Steps[i].Kind {
		case layout.StepOrderBy:
			return i
		case layout.StepGroupBy, layout.StepFold, layout.StepUnfold:
			return -1
		}
	}
	return -1
}

// applySteps runs the layout pipeline over the stream. When tailOnly is
// true, only per-row steps run (project/select/fold would corrupt tail
// semantics differently: project and select apply; reordering steps are
// skipped because tails are unorganized by design; fold/unfold/limit make
// incremental inserts ill-defined and are rejected).
func (r *relation) applySteps(spec *layout.Spec, tailOnly bool) error {
	settled := settledOrder(spec)
	for i, st := range spec.Steps {
		var err error
		switch st.Kind {
		case layout.StepSelect:
			err = r.filter(st.Pred)
		case layout.StepProject:
			err = r.project(st.Fields)
		case layout.StepOrderBy:
			if tailOnly {
				continue
			}
			err = r.orderBy(st.Keys, i == settled)
		case layout.StepGroupBy:
			if tailOnly {
				continue
			}
			err = r.groupBy(st.Fields)
		case layout.StepLimit:
			if tailOnly {
				return fmt.Errorf("table: cannot Insert into a limit[] layout; Reorganize instead")
			}
			r.limit(st.N)
		case layout.StepFold:
			if tailOnly {
				return fmt.Errorf("table: cannot Insert into a folded layout; Reorganize instead")
			}
			err = r.boxed(func(rel transforms.Relation) (transforms.Relation, error) {
				return transforms.FoldHash(rel, st.Fields, st.By)
			})
		case layout.StepUnfold:
			if tailOnly {
				return fmt.Errorf("table: cannot Insert into an unfold layout; Reorganize instead")
			}
			err = r.boxed(func(rel transforms.Relation) (transforms.Relation, error) {
				return transforms.Unfold(rel, st.Fields, st.Kinds)
			})
		default:
			err = fmt.Errorf("table: unknown step %q", st.Kind)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// filter keeps the rows satisfying pred (paper §3.5.1 select), through the
// compiled predicate the scans use: oracle.Eval's verdict on every row.
func (r *relation) filter(pred algebra.Predicate) error {
	if err := pred.Validate(r.b.Schema()); err != nil {
		return err
	}
	cp, err := algebra.CompilePred(pred, r.b.Schema())
	if err != nil {
		return err
	}
	n := 0
	for i := range r.inputs {
		lo, hi := r.span(i)
		r.inputs[i].start = n
		n += copy(r.perm[n:], cp.Filter(r.b, r.perm[lo:hi]))
	}
	r.perm = r.perm[:n]
	return nil
}

// project keeps the named columns (paper §3.5.1 project).
func (r *relation) project(fields []string) error {
	schema, idx, err := r.b.Schema().Project(fields)
	if err != nil {
		return err
	}
	b := vec.NewBatch(schema)
	for i, c := range idx {
		b.Cols[i], r.b.Cols[c] = r.b.Cols[c], b.Cols[i]
	}
	if err := b.SetLen(r.b.Len()); err != nil {
		return err
	}
	r.b = b
	return nil
}

// limit keeps the first n rows of the stream (all of them when n < 0).
func (r *relation) limit(n int) {
	if n < 0 || n >= len(r.perm) {
		return
	}
	r.perm = r.perm[:n]
	for len(r.inputs) > 1 && r.inputs[len(r.inputs)-1].start >= n {
		r.inputs = r.inputs[:len(r.inputs)-1]
	}
}

// orderBy stably sorts the stream by keys (paper §3.5.3 orderby): each input
// that is not already in key order is sorted on its own, then the inputs are
// merged, ties going to the earlier input — which is the stable sort of
// their concatenation. When this is the layout's settled orderby, organized
// inputs rendered under it count as sorted.
func (r *relation) orderBy(keys []algebra.OrderKey, settled bool) error {
	order, err := r.comparator(keys)
	if err != nil {
		return err
	}
	for i := range r.inputs {
		if !settled || !r.inputs[i].sorted {
			lo, hi := r.span(i)
			slices.SortStableFunc(r.perm[lo:hi], order)
		}
	}
	r.merge(order)
	return nil
}

// merge merges the (sorted) inputs pairwise, round by round, into one.
func (r *relation) merge(order func(a, b int32) int) {
	if len(r.inputs) > 1 {
		bounds := make([]int, 0, len(r.inputs)+1)
		for _, in := range r.inputs {
			bounds = append(bounds, in.start)
		}
		bounds = append(bounds, len(r.perm))
		src, dst := r.perm, make([]int32, len(r.perm))
		for len(bounds) > 2 {
			next := bounds[:0:0]
			for i := 0; i+1 < len(bounds); i += 2 {
				lo, mid := bounds[i], bounds[i+1]
				hi := mid
				if i+2 < len(bounds) {
					hi = bounds[i+2]
				}
				mergeInto(dst[lo:hi], src[lo:mid], src[mid:hi], order)
				next = append(next, lo)
			}
			bounds = append(next, len(r.perm))
			src, dst = dst, src
		}
		r.perm = src
	}
	r.one()
}

// mergeInto merges sorted a and b into dst, taking a's row on a tie.
func mergeInto(dst, a, b []int32, order func(x, y int32) int) {
	k := 0
	for len(a) > 0 && len(b) > 0 {
		if order(b[0], a[0]) < 0 {
			dst[k], b = b[0], b[1:]
		} else {
			dst[k], a = a[0], a[1:]
		}
		k++
	}
	k += copy(dst[k:], a)
	copy(dst[k:], b)
}

// comparator orders two rows by keys with value.Compare's semantics on
// typed columns: nulls first, NaN below every number, strings and bytes by
// content, Lists (the one boxed kind) through value.Compare itself.
func (r *relation) comparator(keys []algebra.OrderKey) (func(a, b int32) int, error) {
	byKey := make([]func(a, b int32) int, len(keys))
	for k, key := range keys {
		c := r.b.Schema().Index(key.Field)
		if c < 0 {
			return nil, fmt.Errorf("table: orderby: unknown field %q", key.Field)
		}
		col := &r.b.Cols[c]
		var order func(a, b int32) int
		switch r.b.Schema().Fields[c].Type {
		case value.Int, value.Bool:
			xs := col.Int64s
			order = func(a, b int32) int { return cmp.Compare(xs[a], xs[b]) }
		case value.Float:
			xs := col.Float64s
			order = func(a, b int32) int { return value.CompareFloats(xs[a], xs[b]) }
		case value.Str, value.Bytes:
			order = func(a, b int32) int { return bytes.Compare(col.BytesAt(int(a)), col.BytesAt(int(b))) }
		default:
			order = func(a, b int32) int { return value.Compare(col.Boxed[a], col.Boxed[b]) }
		}
		if col.Nulls.Any() {
			typed := order
			order = func(a, b int32) int {
				an, bn := col.IsNull(int(a)), col.IsNull(int(b))
				switch {
				case an && bn:
					return 0
				case an:
					return -1
				case bn:
					return 1
				}
				return typed(a, b)
			}
		}
		if key.Desc {
			asc := order
			order = func(a, b int32) int { return asc(b, a) }
		}
		byKey[k] = order
	}
	if len(byKey) == 1 {
		return byKey[0], nil
	}
	return func(a, b int32) int {
		for _, order := range byKey {
			if c := order(a, b); c != 0 {
				return c
			}
		}
		return 0
	}, nil
}

// groupBy clusters rows with equal key values contiguously, groups in
// first-appearance order and rows in stream order within each (the paper's
// groupby clause on flat rows): group ids from a vec.GroupTable, then a
// stable counting sort.
func (r *relation) groupBy(fields []string) error {
	keySchema, idx, err := r.b.Schema().Project(fields)
	if err != nil {
		return fmt.Errorf("table: groupby: %w", err)
	}
	cols := make([]*vec.Vector, len(idx))
	for i, c := range idx {
		cols[i] = &r.b.Cols[c]
	}
	groups := vec.NewGroupTable(keySchema)
	r.bucketSort(groups.GroupIDs(cols, r.perm, r.b.Len(), nil), groups.Len())
	return nil
}

// bucketSort reorders the stream stably by bucket — ids[k], in [0, n), is
// stream row k's — and returns where each bucket starts, then the end.
func (r *relation) bucketSort(ids []int32, n int) []int {
	starts := make([]int, n+1)
	for _, id := range ids {
		starts[id+1]++
	}
	for i := 1; i <= n; i++ {
		starts[i] += starts[i-1]
	}
	next := slices.Clone(starts[:n])
	out := make([]int32, len(r.perm))
	for k, id := range ids {
		out[next[id]] = r.perm[k]
		next[id]++
	}
	r.perm = out
	r.one()
	return starts
}

// boxed runs a transform with no column form over the stream's rows boxed,
// and takes its result back into vectors as the whole stream.
func (r *relation) boxed(transform func(transforms.Relation) (transforms.Relation, error)) error {
	rows := r.b.AppendRows(make([]value.Row, 0, len(r.perm)), r.perm)
	out, err := transform(transforms.Relation{Schema: r.b.Schema(), Rows: rows})
	if err != nil {
		return err
	}
	next, err := rowsRelation(out.Schema, out.Rows)
	if err != nil {
		return err
	}
	*r = *next
	return nil
}

// grid lays the stream out in grid cells (paper §3.6): each dimension's
// bounds are the min/max of its column over the stream, each row goes to
// its cell in stream order, and cells follow the layout's curve.
func (r *relation) grid(g *layout.GridSpec) ([]transforms.GridBounds, []cellRun, error) {
	schema := r.b.Schema()
	bounds := make([]transforms.GridBounds, len(g.Dims))
	coords := make([][]float64, len(g.Dims)) // per dimension, parallel to perm
	for d, dim := range g.Dims {
		c := schema.Index(dim.Field)
		if c < 0 {
			return nil, nil, fmt.Errorf("table: grid: unknown field %q", dim.Field)
		}
		t := schema.Fields[c].Type
		if t != value.Int && t != value.Float {
			return nil, nil, fmt.Errorf("table: grid: field %q is %s, not numeric", dim.Field, t)
		}
		col := &r.b.Cols[c]
		b := transforms.GridBounds{Field: dim.Field, Col: c, Cells: dim.Cells, Min: math.Inf(1), Max: math.Inf(-1)}
		xs := make([]float64, len(r.perm))
		for k, i := range r.perm {
			if col.IsNull(int(i)) {
				return nil, nil, fmt.Errorf("table: grid: null value in dimension %q", dim.Field)
			}
			var x float64
			if t == value.Float {
				x = col.Float64s[i]
			} else {
				x = float64(col.Int64s[i])
			}
			// Compared as the reference (oracle.GridBounds) does: a NaN moves
			// neither bound, and the first of -0 and +0 seen wins.
			if x < b.Min {
				b.Min = x
			}
			if x > b.Max {
				b.Max = x
			}
			xs[k] = x
		}
		if len(r.perm) == 0 {
			b.Min, b.Max = 0, 0
		}
		bounds[d], coords[d] = b, xs
	}
	// Each row's bucket is its cell's place on the curve.
	cellOf := make([]uint64, len(r.perm))
	place := make(map[uint64]int32)
	var cells []uint64
	for k := range r.perm {
		var cell uint64
		for d, b := range bounds {
			cell = cell*uint64(b.Cells) + uint64(b.CellOf(coords[d][k]))
		}
		cellOf[k] = cell
		if _, ok := place[cell]; !ok {
			place[cell] = 0
			cells = append(cells, cell)
		}
	}
	if err := orderCells(cells, bounds, g.Curve); err != nil {
		return nil, nil, err
	}
	for i, cell := range cells {
		place[cell] = int32(i)
	}
	ids := make([]int32, len(r.perm))
	for k, cell := range cellOf {
		ids[k] = place[cell]
	}
	starts := r.bucketSort(ids, len(cells))
	runs := make([]cellRun, len(cells))
	for i, cell := range cells {
		runs[i] = cellRun{cell: cell, rows: r.perm[starts[i]:starts[i+1]]}
	}
	return bounds, runs, nil
}

// orderCells sorts distinct grid cells along the layout's space-filling
// curve.
func orderCells(cells []uint64, bounds []transforms.GridBounds, curve algebra.CurveKind) error {
	maxCells := 0
	for _, b := range bounds {
		if b.Cells > maxCells {
			maxCells = b.Cells
		}
	}
	bits := 1
	for (1 << bits) < maxCells {
		bits++
	}
	curveKey := func(cell uint64) (uint64, error) {
		coords := transforms.CellCoords(cell, bounds)
		switch curve {
		case algebra.CurveRowMajor, "":
			return cell, nil
		case algebra.CurveZOrder:
			cs := make([]uint32, len(coords))
			for i, c := range coords {
				cs[i] = uint32(c)
			}
			return zorder.InterleaveN(cs, bits)
		case algebra.CurveHilbert:
			if len(coords) != 2 {
				return 0, fmt.Errorf("table: hilbert needs 2 dims")
			}
			return zorder.Hilbert2(uint(bits), uint32(coords[0]), uint32(coords[1])), nil
		default:
			return 0, fmt.Errorf("table: unknown curve %q", curve)
		}
	}
	keys := make(map[uint64]uint64, len(cells))
	for _, cell := range cells {
		k, err := curveKey(cell)
		if err != nil {
			return err
		}
		keys[cell] = k
	}
	sort.Slice(cells, func(i, j int) bool { return keys[cells[i]] < keys[cells[j]] })
	return nil
}
