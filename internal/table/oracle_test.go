package table

// The differential oracle: the boxed row-at-a-time executor the engine
// started with, kept here as the reference implementation every production
// scan variant is compared against. It shares the planner with production
// (same parts, same pruning, so Report and page accounting questions stay
// out of it) and nothing after it: blocks decode into boxed values through
// segment.Reader.ReadBlock, rows filter through Predicate.Eval and project
// one at a time, and aggregates fold row by row through EvalScalar into a
// boxed group table — per block, merged in stored block order, which is
// what makes float results bit-identical to production's.

import (
	"fmt"
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

// oracleScan answers opts with the boxed executor, serially, in stored
// order. It honors Fields, Pred, NoZonePrune and Aggregate; of the executor
// switches it knows only Quarantine, as "skip a block that fails to decode"
// — the others are what it is the oracle for.
func oracleScan(t testing.TB, e *Engine, name string, opts ScanOptions) []value.Row {
	t.Helper()
	tab, err := e.cat.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	fields := opts.Fields
	if opts.Aggregate != nil {
		if fields, err = aggScanFields(tab, opts); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := e.planScan(tab, tab.Parts(), fields, opts.Pred, storedScanOpts{noZone: opts.NoZonePrune, agg: opts.Aggregate})
	if err != nil {
		t.Fatal(err)
	}
	var out []value.Row
	var final *boxedAggState
	if plan.agg != nil {
		final = newBoxedAggState(plan.agg)
	}
	for _, ref := range plan.blocks {
		p := plan.parts[ref.part]
		outIdx, identity := plan.outIdx, plan.identity
		if final != nil {
			outIdx, identity = nil, true // aggregates fold decoded rows
		}
		rows, err := decodeBlockRows(p, ref.block, plan.decoded, opts.Pred, outIdx, identity)
		if err != nil {
			if opts.Quarantine {
				continue
			}
			t.Fatal(err)
		}
		if final == nil {
			out = append(out, rows...)
			continue
		}
		st, err := observeBlockBoxed(plan.agg, rows)
		if err != nil {
			t.Fatal(err)
		}
		final.merge(plan.agg, st)
	}
	if final != nil {
		return final.resultRows(plan.agg)
	}
	return out
}

// segColumns lists the column indexes of segment si needed for the decoded
// schema.
func segColumns(p *part, si int, decoded *value.Schema) []int {
	var out []int
	for _, f := range decoded.Fields {
		loc, ok := p.fieldSeg[f.Name]
		if ok && loc[0] == si {
			out = append(out, loc[1])
		}
	}
	return out
}

// decodeBlockRows decodes one block of a part into boxed rows, filters with
// pred, and projects to the output columns. The row count comes from block
// metadata; a decoded column of any other length is an error.
func decodeBlockRows(p *part, block int, decoded *value.Schema, pred algebra.Predicate, outIdx []int, identity bool) ([]value.Row, error) {
	colsBySeg := make([][][]value.Value, len(p.entries))
	nrows := blockRowCount(p, block)
	for si, r := range p.readers {
		if r == nil {
			continue
		}
		want := segColumns(p, si, decoded)
		cols, err := r.ReadBlock(block, want)
		if err != nil {
			return nil, err
		}
		colsBySeg[si] = cols
		for _, w := range want {
			if cols[w] != nil && len(cols[w]) != nrows {
				return nil, fmt.Errorf("table: block %d: segment %d column %d holds %d rows, block metadata says %d",
					block, si, w, len(cols[w]), nrows)
			}
		}
	}
	rows := make([]value.Row, 0, nrows)
	for i := 0; i < nrows; i++ {
		row := make(value.Row, decoded.Arity())
		for fi, f := range decoded.Fields {
			loc := p.fieldSeg[f.Name]
			row[fi] = colsBySeg[loc[0]][loc[1]][i]
		}
		if !pred.IsTrue() && !pred.Eval(decoded, row) {
			continue
		}
		if identity {
			rows = append(rows, row)
			continue
		}
		out := make(value.Row, len(outIdx))
		for oi, di := range outIdx {
			out[oi] = row[di]
		}
		rows = append(rows, out)
	}
	return rows, nil
}

// boxedAggState is the oracle's aggregation state: distinct key tuples in
// first-seen order with a hash index over them, and production's
// accumulators per item.
type boxedAggState struct {
	keys []value.Row
	kidx map[uint64][]int32
	accs []aggAcc
}

func newBoxedAggState(ex *aggExec) *boxedAggState {
	st := &boxedAggState{accs: make([]aggAcc, len(ex.items)), kidx: make(map[uint64][]int32)}
	if len(ex.keyIdx) == 0 {
		// Ungrouped: exactly one group, present even with zero input rows.
		for i := range st.accs {
			st.accs[i].grow(&ex.items[i], 1)
		}
	}
	return st
}

// observeBlockBoxed folds one block's (already filtered) rows into a fresh
// partial state, one row and one EvalScalar at a time.
func observeBlockBoxed(ex *aggExec, rows []value.Row) (*boxedAggState, error) {
	st := newBoxedAggState(ex)
	var key value.Row
	for _, row := range rows {
		g := 0
		if len(ex.keyIdx) > 0 {
			key = key[:0]
			for _, di := range ex.keyIdx {
				key = append(key, row[di])
			}
			g = st.groupID(key)
		}
		for ii := range ex.items {
			it := &ex.items[ii]
			acc := &st.accs[ii]
			acc.grow(it, g+1)
			if it.expr == nil {
				acc.count[g]++
				continue
			}
			v, err := algebra.EvalScalar(it.expr, ex.decoded, row)
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				continue
			}
			switch it.fn {
			case AggCount:
				acc.count[g]++
			case AggSum, AggAvg:
				if it.kind == value.Float {
					acc.sumF[g] += v.Float()
				} else {
					acc.sumI[g] += v.Int()
				}
				acc.count[g]++
			case AggMin, AggMax:
				if it.kind == value.Float {
					acc.foldMinMaxF(g, v.Float(), v.Float(), 1)
				} else {
					acc.foldMinMaxI(g, v.Int(), v.Int(), 1)
				}
			}
		}
	}
	return st, nil
}

// groupID finds or inserts a boxed key tuple. Hashing canonicalizes float
// keys (-0 -> +0, one NaN) so it is consistent with value.Equal.
func (st *boxedAggState) groupID(key value.Row) int {
	h := boxedKeyHash(key)
	for _, cand := range st.kidx[h] {
		if rowsEqualKeys(st.keys[cand], key) {
			return int(cand)
		}
	}
	id := int32(len(st.keys))
	st.keys = append(st.keys, key.Clone())
	st.kidx[h] = append(st.kidx[h], id)
	return int(id)
}

func rowsEqualKeys(a, b value.Row) bool {
	for i := range a {
		if !value.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func boxedKeyHash(key value.Row) uint64 {
	var h uint64 = 14695981039346656037
	for _, v := range key {
		var cell uint64
		switch v.Kind() {
		case value.Null:
			cell = 0x9e3779b97f4a7c15
		case value.Int, value.Bool:
			cell = uint64(v.Int())
		case value.Float:
			cell = vec.CanonicalFloatBits(v.Float())
		default:
			cell = v.Hash()
		}
		h = (h ^ cell) * 1099511628211
	}
	return h
}

// merge folds a partial into st; called in stored block order.
func (st *boxedAggState) merge(ex *aggExec, part *boxedAggState) {
	if len(ex.keyIdx) == 0 {
		for ii := range ex.items {
			st.accs[ii].mergeGroup(&ex.items[ii], 0, &part.accs[ii], 0)
		}
		return
	}
	for lg, key := range part.keys {
		fg := st.groupID(key)
		for ii := range ex.items {
			st.accs[ii].grow(&ex.items[ii], fg+1)
			st.accs[ii].mergeGroup(&ex.items[ii], fg, &part.accs[ii], lg)
		}
	}
}

// resultRows materializes the final state under ex.out, sorted by key.
func (st *boxedAggState) resultRows(ex *aggExec) []value.Row {
	n := 1
	if len(ex.keyIdx) > 0 {
		n = len(st.keys)
	}
	rows := make([]value.Row, 0, n)
	for g := 0; g < n; g++ {
		row := make(value.Row, ex.out.Arity())
		for ki := range ex.keyIdx {
			row[ki] = st.keys[g][ki]
		}
		for ii := range ex.items {
			st.accs[ii].grow(&ex.items[ii], g+1)
			row[len(ex.keyIdx)+ii] = ex.items[ii].finalize(&st.accs[ii], g)
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

// scanVariants enumerates the production executor matrix: serial/morsel ×
// quarantine off/on. Every variant must return exactly what oracleScan
// returns.
func scanVariants(base ScanOptions) []scanVariant {
	var out []scanVariant
	for _, exec := range []string{"serial", "morsel"} {
		for _, quar := range []string{"", "-quarantine"} {
			o := base
			o.Parallel, o.Workers = exec == "morsel", 4
			o.Quarantine = quar != ""
			out = append(out, scanVariant{exec + quar, o})
		}
	}
	return out
}

type scanVariant struct {
	name string
	opts ScanOptions
}

// drainBatches drains a cursor through NextBatch, boxing each batch's rows.
func drainBatches(t testing.TB, c *Cursor) []value.Row {
	t.Helper()
	var out []value.Row
	for {
		b, ok, err := c.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		for i := 0; i < b.Len(); i++ {
			out = append(out, b.Row(i))
		}
	}
}

// drainMixed drains a cursor interleaving Next and NextBatch as seed
// dictates.
func drainMixed(t testing.TB, c *Cursor, seed int64) []value.Row {
	t.Helper()
	var out []value.Row
	for step := uint64(seed); ; step = step*6364136223846793005 + 1442695040888963407 {
		if step>>33&1 == 0 {
			row, ok, err := c.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return out
			}
			out = append(out, row)
			continue
		}
		b, ok, err := c.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		for i := 0; i < b.Len(); i++ {
			out = append(out, b.Row(i))
		}
	}
}

// requireRows fails unless got equals want cell for cell under value.Equal
// (bit-identical floats up to NaN payload and zero sign, which value.Equal
// canonicalizes exactly like the group tables do).
func requireRows(t testing.TB, what string, got, want []value.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, oracle %d", what, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d has %d cells, oracle %d", what, i, len(got[i]), len(want[i]))
		}
		for c := range want[i] {
			if !value.Equal(got[i][c], want[i][c]) {
				t.Fatalf("%s: row %d col %d: %v, oracle %v", what, i, c, got[i][c], want[i][c])
			}
		}
	}
}
