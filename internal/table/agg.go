package table

// Aggregation pushed below the cursor: an AggSpec on ScanOptions turns the
// scan into count/sum/min/max/avg (optionally grouped by stored columns)
// computed block-at-a-time with the vectorized kernels in internal/vec —
// no row is ever materialized, and a bare count(*) with no predicate reads
// no data pages at all (block metadata carries the row counts).
//
// Determinism: an aggregation's result is bit-identical run to run, floats
// included, and pinned to both oracles of the tests. The rule that makes
// this true: a scan has one state, every block folds straight into it in
// stored order (blockExec.run), and each sum is one running sum per group
// over the selected rows in stored order.
//
// Null semantics are SQL-ish: count(*) counts rows; count/sum/min/max/avg
// over an expression skip null inputs and return null (count: 0) when no
// non-null input exists. Output groups are sorted by key, ascending.

import (
	"fmt"
	"strings"

	"rodentstore/internal/algebra"
	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

// AggFunc enumerates the aggregate functions.
type AggFunc uint8

const (
	// AggCount counts rows (Expr nil) or non-null expression values.
	AggCount AggFunc = iota
	// AggSum sums expression values (int64 sums wrap).
	AggSum
	// AggMin takes the minimum expression value.
	AggMin
	// AggMax takes the maximum expression value.
	AggMax
	// AggAvg averages expression values (always a float).
	AggAvg
)

func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	}
	return fmt.Sprintf("aggfunc(%d)", uint8(f))
}

// AggItem is one aggregate output: Func over Expr (nil Expr = count(*)).
type AggItem struct {
	Func AggFunc
	Expr algebra.ScalarExpr
	// Name is the output column name; "" derives "func(expr)".
	Name string
}

// AggSpec turns a scan into an aggregation: one output row per distinct
// GroupBy key tuple (one row total when GroupBy is empty), sorted by key.
type AggSpec struct {
	// GroupBy lists stored columns to group on (empty = one global group).
	GroupBy []string
	// Items are the aggregate outputs, after the group keys.
	Items []AggItem
}

// ParseAggItem parses an aggregate string: "count", "count(*)",
// "sum(a*b)", "avg(price - cost) as margin", ...
func ParseAggItem(s string) (AggItem, error) {
	var item AggItem
	s = strings.TrimSpace(s)
	if i := strings.LastIndex(strings.ToLower(s), " as "); i >= 0 {
		item.Name = strings.TrimSpace(s[i+4:])
		s = strings.TrimSpace(s[:i])
	}
	open := strings.IndexByte(s, '(')
	fn, arg := s, ""
	if open >= 0 {
		if !strings.HasSuffix(s, ")") {
			return item, fmt.Errorf("table: aggregate %q: missing ')'", s)
		}
		fn, arg = s[:open], strings.TrimSpace(s[open+1:len(s)-1])
	}
	switch strings.ToLower(strings.TrimSpace(fn)) {
	case "count":
		item.Func = AggCount
	case "sum":
		item.Func = AggSum
	case "min":
		item.Func = AggMin
	case "max":
		item.Func = AggMax
	case "avg":
		item.Func = AggAvg
	default:
		return item, fmt.Errorf("table: unknown aggregate function %q (want count/sum/min/max/avg)", fn)
	}
	if arg == "" || arg == "*" {
		if item.Func != AggCount {
			return item, fmt.Errorf("table: %s needs an expression argument", item.Func)
		}
		return item, nil
	}
	expr, err := algebra.ParseScalarExpr(arg)
	if err != nil {
		return item, err
	}
	item.Expr = expr
	return item, nil
}

// outName is the item's output column name.
func (a AggItem) outName() string {
	if a.Name != "" {
		return a.Name
	}
	if a.Expr == nil {
		return "count"
	}
	return a.Func.String() + "(" + a.Expr.String() + ")"
}

// ScanFields returns the stored columns the spec reads (group keys plus
// expression inputs), deduplicated in first-use order.
func (s *AggSpec) ScanFields() []string {
	var out []string
	seen := make(map[string]bool)
	for _, f := range s.GroupBy {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	for _, it := range s.Items {
		if it.Expr == nil {
			continue
		}
		for _, f := range algebra.ExprFields(it.Expr) {
			if !seen[f] {
				seen[f] = true
				out = append(out, f)
			}
		}
	}
	return out
}

// aggItemExec is one compiled aggregate output.
type aggItemExec struct {
	fn   AggFunc
	expr algebra.ScalarExpr    // nil for count(*)
	ce   *algebra.CompiledExpr // typed evaluator of expr; nil for count(*)
	kind value.Kind            // expression result kind (Int/Float); Int for count(*)
}

// aggExec is an AggSpec compiled against a plan's decoded schema.
type aggExec struct {
	decoded   *value.Schema
	keyIdx    []int // group-by column positions in decoded
	keySchema *value.Schema
	items     []aggItemExec
	out       *value.Schema
}

// buildAggExec compiles spec against the decoded schema.
func buildAggExec(spec *AggSpec, decoded *value.Schema) (*aggExec, error) {
	if len(spec.Items) == 0 {
		return nil, fmt.Errorf("table: aggregate spec has no items")
	}
	ex := &aggExec{decoded: decoded}
	var outFields []value.Field
	for _, name := range spec.GroupBy {
		di := decoded.Index(name)
		if di < 0 {
			return nil, fmt.Errorf("table: group-by field %q not in scan schema", name)
		}
		ex.keyIdx = append(ex.keyIdx, di)
		outFields = append(outFields, decoded.Fields[di])
	}
	if len(ex.keyIdx) > 0 {
		ks, err := value.NewSchema(outFields[:len(ex.keyIdx)]...)
		if err != nil {
			return nil, err
		}
		ex.keySchema = ks
	}
	for _, it := range spec.Items {
		ie := aggItemExec{fn: it.Func, expr: it.Expr, kind: value.Int}
		if it.Expr != nil {
			kind, err := algebra.ExprType(it.Expr, decoded)
			if err != nil {
				return nil, err
			}
			ie.kind = kind
			if ie.ce, err = algebra.CompileExpr(it.Expr, decoded); err != nil {
				return nil, err
			}
		} else if it.Func != AggCount {
			return nil, fmt.Errorf("table: %s needs an expression", it.Func)
		}
		outKind := ie.kind
		switch it.Func {
		case AggCount:
			outKind = value.Int
		case AggAvg:
			outKind = value.Float
		}
		outFields = append(outFields, value.Field{Name: it.outName(), Type: outKind})
		ex.items = append(ex.items, ie)
	}
	out, err := value.NewSchema(outFields...)
	if err != nil {
		return nil, fmt.Errorf("table: aggregate outputs collide: %w (name them with \"... as alias\")", err)
	}
	ex.out = out
	return ex, nil
}

// aggAcc is one item's per-group accumulators, indexed by dense group id.
// count tracks non-null inputs (rows for count(*)); count == 0 doubles as
// the "min/max unseen" sentinel.
type aggAcc struct {
	sumI       []int64
	sumF       []float64
	minI, maxI []int64
	minF, maxF []float64
	count      []int64
}

// grow extends the accumulators to n groups (zero-valued).
func (a *aggAcc) grow(it *aggItemExec, n int) {
	a.count = zeroExtend(a.count, n)
	if it.expr == nil {
		return
	}
	isFloat := it.kind == value.Float
	switch it.fn {
	case AggSum, AggAvg:
		if isFloat {
			a.sumF = zeroExtend(a.sumF, n)
		} else {
			a.sumI = zeroExtend(a.sumI, n)
		}
	case AggMin, AggMax:
		if isFloat {
			a.minF, a.maxF = zeroExtend(a.minF, n), zeroExtend(a.maxF, n)
		} else {
			a.minI, a.maxI = zeroExtend(a.minI, n), zeroExtend(a.maxI, n)
		}
	}
}

// zeroExtend lengthens s to n elements with zeros, in one step.
func zeroExtend[T any](s []T, n int) []T {
	if len(s) >= n {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}

// aggState is an aggregating scan's one state: runAggregate creates it and
// every block of the scan folds into it, in stored order.
type aggState struct {
	// gt holds the typed group table (nil when ungrouped).
	gt *vec.GroupTable
	// accs holds the per-item accumulators, parallel to exec.items.
	accs []aggAcc
}

// newState allocates a state for the exec.
func (ex *aggExec) newState() *aggState {
	st := &aggState{accs: make([]aggAcc, len(ex.items))}
	if len(ex.keyIdx) > 0 {
		st.gt = vec.NewGroupTable(ex.keySchema)
	} else {
		// Ungrouped: exactly one group, present even with zero input rows.
		for i := range st.accs {
			st.accs[i].grow(&ex.items[i], 1)
		}
	}
	return st
}

// ngroups returns the number of groups in the state.
func (st *aggState) ngroups(ex *aggExec) int {
	if len(ex.keyIdx) == 0 {
		return 1
	}
	return st.gt.Len()
}

// aggScratch is a cursor's reusable aggregation scratch.
type aggScratch struct {
	es      algebra.ExprScratch
	evals   []vec.Vector // per item: its expression over the selected rows
	gids    []int32
	keyCols []*vec.Vector
}

// observeBlock is the aggregating block fold: decode predicate columns,
// filter to a selection vector, decode only the key/input columns, evaluate
// every item's expression, then assign group ids with the typed hash table
// and run the typed kernels into st. Columns nothing needs are never
// decoded; when nothing at all is needed (bare count(*), no predicate) the
// block's pages are never read. Every step that can fail comes before the
// first write to st, so a block that quarantine retries or skips never adds
// a group or a count twice.
func (ex *aggExec) observeBlock(p *part, block int, filter *algebra.CompiledPred, vs *vecScratch, as *aggScratch, st *aggState) error {
	nrows := blockRowCount(p, block)
	vs.startBlock(p, ex.decoded.Arity())
	dec := batchPool.Get(ex.decoded)
	defer batchPool.Put(dec)
	done := vs.done
	// decodeInto decodes each needed column once; a segment is fetched on
	// first use, so a fold that needs no columns performs no reads.
	decodeInto := func(di int) error {
		if done[di] {
			return nil
		}
		if err := vs.decodeCol(p, block, nrows, ex.decoded.Fields[di].Name, &dec.Cols[di]); err != nil {
			return err
		}
		done[di] = true
		return nil
	}
	for _, di := range filter.Columns() {
		if err := decodeInto(di); err != nil {
			return err
		}
	}
	nsel := nrows
	var sel []int32
	if !filter.Empty() {
		vs.sel = vec.FillSel(vs.sel, nrows)
		vs.sel = filter.Filter(dec, vs.sel)
		nsel = len(vs.sel)
		if nsel < nrows {
			sel = vs.sel
		}
	}
	if nsel == 0 {
		return nil
	}
	for _, di := range ex.keyIdx {
		if err := decodeInto(di); err != nil {
			return err
		}
	}
	// Evaluate every expression densely over the selection: slot k of
	// evals[ii] belongs to selected row k, parallel to gids.
	if len(as.evals) < len(ex.items) {
		as.evals = make([]vec.Vector, len(ex.items))
	}
	for ii := range ex.items {
		ce := ex.items[ii].ce
		if ce == nil {
			continue
		}
		for _, di := range ce.Columns() {
			if err := decodeInto(di); err != nil {
				return err
			}
		}
		if err := ce.EvalVec(dec, nrows, sel, &as.evals[ii], &as.es); err != nil {
			return err
		}
	}
	// Nothing below fails: the block folds into st.
	var gids []int32
	if len(ex.keyIdx) > 0 {
		as.keyCols = as.keyCols[:0]
		for _, di := range ex.keyIdx {
			as.keyCols = append(as.keyCols, &dec.Cols[di])
		}
		as.gids = st.gt.GroupIDs(as.keyCols, sel, nrows, as.gids[:0])
		gids = as.gids
	}
	ngroups := st.ngroups(ex)
	for ii := range ex.items {
		it := &ex.items[ii]
		acc := &st.accs[ii]
		acc.grow(it, ngroups)
		if it.ce == nil {
			// count(*): selected rows per group; no column input.
			if gids == nil {
				acc.count[0] += int64(nsel)
			} else {
				vec.CountRowsGroups(nsel, nil, gids, acc.count)
			}
			continue
		}
		ev := &as.evals[ii]
		isFloat := it.kind == value.Float
		switch it.fn {
		case AggCount:
			if gids == nil {
				acc.count[0] += vec.CountNonNull(ev.Len(), &ev.Nulls, nil)
			} else {
				vec.CountNonNullGroups(ev.Len(), &ev.Nulls, nil, gids, acc.count)
			}
		case AggSum, AggAvg:
			switch {
			case gids == nil && isFloat:
				var n int64
				acc.sumF[0], n = vec.SumFloat64(acc.sumF[0], ev.Float64s, &ev.Nulls, nil)
				acc.count[0] += n
			case gids == nil:
				s, n := vec.SumInt64(ev.Int64s, &ev.Nulls, nil)
				acc.sumI[0] += s
				acc.count[0] += n
			case isFloat:
				vec.SumFloat64Groups(ev.Float64s, &ev.Nulls, nil, gids, acc.sumF, acc.count)
			default:
				vec.SumInt64Groups(ev.Int64s, &ev.Nulls, nil, gids, acc.sumI, acc.count)
			}
		case AggMin, AggMax:
			switch {
			case gids == nil && isFloat:
				mn, mx, n := vec.MinMaxFloat64(ev.Float64s, &ev.Nulls, nil)
				acc.foldMinMaxF(0, mn, mx, n)
			case gids == nil:
				mn, mx, n := vec.MinMaxInt64(ev.Int64s, &ev.Nulls, nil)
				acc.foldMinMaxI(0, mn, mx, n)
			case isFloat:
				vec.MinMaxFloat64Groups(ev.Float64s, &ev.Nulls, nil, gids, acc.minF, acc.maxF, acc.count)
			default:
				vec.MinMaxInt64Groups(ev.Int64s, &ev.Nulls, nil, gids, acc.minI, acc.maxI, acc.count)
			}
		}
	}
	return nil
}

// foldMinMaxI folds a (min, max, count) summary into group g.
func (a *aggAcc) foldMinMaxI(g int, mn, mx, n int64) {
	if n == 0 {
		return
	}
	if a.count[g] == 0 {
		a.minI[g], a.maxI[g] = mn, mx
	} else {
		if mn < a.minI[g] {
			a.minI[g] = mn
		}
		if mx > a.maxI[g] {
			a.maxI[g] = mx
		}
	}
	a.count[g] += n
}

// foldMinMaxF folds a float (min, max, count) summary into group g under
// value.CompareFloats ordering.
func (a *aggAcc) foldMinMaxF(g int, mn, mx float64, n int64) {
	if n == 0 {
		return
	}
	if a.count[g] == 0 {
		a.minF[g], a.maxF[g] = mn, mx
	} else {
		if value.CompareFloats(mn, a.minF[g]) < 0 {
			a.minF[g] = mn
		}
		if value.CompareFloats(mx, a.maxF[g]) > 0 {
			a.maxF[g] = mx
		}
	}
	a.count[g] += n
}

// resultRows materializes the final state as boxed rows under ex.out,
// sorted ascending by the group key columns.
func (ex *aggExec) resultRows(st *aggState) []value.Row {
	n := st.ngroups(ex)
	rows := make([]value.Row, 0, n)
	for g := 0; g < n; g++ {
		row := make(value.Row, ex.out.Arity())
		for ki := range ex.keyIdx {
			row[ki] = st.gt.Keys().Cols[ki].Value(g)
		}
		base := len(ex.keyIdx)
		for ii := range ex.items {
			row[base+ii] = ex.items[ii].finalize(&st.accs[ii], g)
		}
		rows = append(rows, row)
	}
	if len(ex.keyIdx) > 0 {
		keys := make([]int, len(ex.keyIdx))
		for i := range keys {
			keys[i] = i
		}
		value.SortRows(rows, keys, nil)
	}
	return rows
}

// finalize boxes one item's result for group g.
func (it *aggItemExec) finalize(a *aggAcc, g int) value.Value {
	n := a.count[g]
	switch it.fn {
	case AggCount:
		return value.NewInt(n)
	case AggSum:
		if n == 0 {
			return value.NullValue()
		}
		if it.kind == value.Float {
			return value.NewFloat(a.sumF[g])
		}
		return value.NewInt(a.sumI[g])
	case AggMin:
		if n == 0 {
			return value.NullValue()
		}
		if it.kind == value.Float {
			return value.NewFloat(a.minF[g])
		}
		return value.NewInt(a.minI[g])
	case AggMax:
		if n == 0 {
			return value.NullValue()
		}
		if it.kind == value.Float {
			return value.NewFloat(a.maxF[g])
		}
		return value.NewInt(a.maxI[g])
	case AggAvg:
		if n == 0 {
			return value.NullValue()
		}
		if it.kind == value.Float {
			return value.NewFloat(a.sumF[g] / float64(n))
		}
		return value.NewFloat(float64(a.sumI[g]) / float64(n))
	}
	return value.NullValue()
}

// runAggregate folds every block of the scan into one state and replaces
// the cursor's stream with the (sorted) result rows. Quarantined blocks
// contribute nothing and are reported as usual.
func (c *Cursor) runAggregate() error {
	ex := c.plan.agg
	st := ex.newState()
	c.exec.agg = st
	for {
		_, ok, err := c.nextResult()
		if err != nil {
			c.exhausted = true
			return err
		}
		if !ok {
			break
		}
	}
	c.schema = ex.out
	c.sorted, c.sortedPos = ex.resultRows(st), 0
	c.exec.agg = nil // a drained cursor does not pin the group table
	return nil
}
