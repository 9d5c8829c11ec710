package table

// The differential oracle: the boxed row-at-a-time executor the engine
// started with, kept here as the reference implementation every production
// scan variant is compared against. It shares the planner with production
// (same parts, same pruning, so Report and page accounting questions stay
// out of it) and the block fetch (segment.Reader.View), and nothing after
// them: chunks decode into boxed values through the reference codecs of
// internal/oracle, rows filter through oracle.Eval and project one at a
// time, and aggregates fold row by row through oracle.EvalScalar into one
// boxed group table, block by block in stored order — the running sums
// production keeps, so float results are bit-identical to it.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/catalog"
	"rodentstore/internal/layout"
	"rodentstore/internal/oracle"
	"rodentstore/internal/segment"
	"rodentstore/internal/transforms"
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
		if err := final.observe(plan.agg, rows); err != nil {
			t.Fatal(err)
		}
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
		cols, err := boxedBlock(r, p.entries[si], block, want, decoded)
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
		if !pred.IsTrue() && !oracle.Eval(pred, decoded, row) {
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

// boxedBlock fetches one block of a segment and decodes its wanted columns
// (indexes into entry's fields) with the reference codecs; the others come
// back nil.
func boxedBlock(r *segment.Reader, entry catalog.SegmentEntry, block int, want []int, decoded *value.Schema) ([][]value.Value, error) {
	bv, err := r.View(block)
	if err != nil {
		return nil, err
	}
	cols := make([][]value.Value, len(entry.Fields))
	for _, c := range want {
		codec, err := oracle.LookupCodec(entry.Codecs[c])
		if err != nil {
			return nil, err
		}
		f := decoded.Fields[decoded.Index(entry.Fields[c])]
		if cols[c], err = codec.Decode(bv.Chunk(c), f.Type); err != nil {
			return nil, fmt.Errorf("table: block %d: field %q: %w", block, f.Name, err)
		}
	}
	return cols, nil
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

// observe folds one block's (already filtered) rows into st, one row and
// one oracle.EvalScalar at a time.
func (st *boxedAggState) observe(ex *aggExec, rows []value.Row) error {
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
			v, err := oracle.EvalScalar(it.expr, ex.decoded, row)
			if err != nil {
				return err
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
	return nil
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

// scanVariants enumerates the production executor matrix: serial ×
// quarantine off/on. Every variant must return exactly what oracleScan
// returns.
func scanVariants(base ScanOptions) []scanVariant {
	var out []scanVariant
	for _, quar := range []string{"", "-quarantine"} {
		o := base
		o.Quarantine = quar != ""
		out = append(out, scanVariant{"serial" + quar, o})
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

// The render oracle: the boxed fold the engine started with, kept as the
// byte-identical reference for readBack + render. Rows are read back one
// Cursor.Next at a time, the layout's steps run through oracle.* and
// transforms.* over boxed rows, grid cells come from
// transforms.ComputeGridBounds and oracle.GridAssign, and every block is
// encoded from boxed columns by the reference codecs, with zone maps taken
// over boxed values. Only the cell order along the curve (orderCells) is
// shared with production.

// oraclePart is one part as the boxed fold writes it: per segment, the
// stream and its block metadata; the grid bounds; the rows in stored order.
type oraclePart struct {
	streams [][]byte
	blocks  [][]segment.BlockMeta
	bounds  []catalog.GridBoundsMeta
	rows    []value.Row
}

// oracleReadBack boxes the rows of the chosen parts, in the order given.
func oracleReadBack(t *testing.T, e *Engine, tab *catalog.Table, parts []catalog.Part) transforms.Relation {
	t.Helper()
	plan, err := e.planScan(tab, parts, nil, algebra.True, storedScanOpts{})
	if err != nil {
		t.Fatal(err)
	}
	cur := newCursor(plan)
	defer cur.Close()
	return transforms.Relation{Schema: cur.Schema(), Rows: drain(t, cur)}
}

// oracleSteps runs the layout pipeline over boxed rows (see
// relation.applySteps for tailOnly).
func oracleSteps(rel transforms.Relation, spec *layout.Spec, tailOnly bool) (transforms.Relation, error) {
	for _, st := range spec.Steps {
		var err error
		switch st.Kind {
		case layout.StepSelect:
			rel, err = oracle.Select(rel, st.Pred)
		case layout.StepProject:
			rel, err = oracle.Project(rel, st.Fields)
		case layout.StepOrderBy:
			if !tailOnly {
				rel, err = oracle.OrderBy(rel, st.Keys)
			}
		case layout.StepGroupBy:
			if !tailOnly {
				rel, err = oracle.GroupBy(rel, st.Fields)
			}
		case layout.StepLimit:
			rel = oracle.Limit(rel, st.N)
		case layout.StepFold:
			rel, err = transforms.FoldHash(rel, st.Fields, st.By)
		case layout.StepUnfold:
			rel, err = transforms.Unfold(rel, st.Fields, st.Kinds)
		}
		if err != nil {
			return rel, err
		}
	}
	return rel, nil
}

// oracleRender lays rel out under tab's layout the boxed way: as an
// organized part, or as an Insert tail (per-row steps only, no grid).
func oracleRender(t *testing.T, e *Engine, tab *catalog.Table, rel transforms.Relation, tail bool) oraclePart {
	t.Helper()
	spec, err := e.specFor(tab, tab.LayoutExpr, rel.Schema)
	if tail {
		spec, err = e.compile(tab.LayoutExpr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if rel, err = oracleSteps(rel, spec, tail); err != nil {
		t.Fatal(err)
	}
	type cellRows struct {
		cell uint64
		rows []value.Row
	}
	runs := []cellRows{{segment.NoCell, rel.Rows}}
	var out oraclePart
	if spec.Grid != nil && !tail {
		bounds, err := transforms.ComputeGridBounds(rel, spec.Grid.Dims)
		if err != nil {
			t.Fatal(err)
		}
		cells, err := oracle.GridAssign(rel, bounds)
		if err != nil {
			t.Fatal(err)
		}
		order := make([]uint64, 0, len(cells))
		for cell := range cells {
			order = append(order, cell)
		}
		if err := orderCells(order, bounds, spec.Grid.Curve); err != nil {
			t.Fatal(err)
		}
		runs = runs[:0]
		for _, cell := range order {
			runs = append(runs, cellRows{cell, cells[cell]})
		}
		for _, b := range bounds {
			out.bounds = append(out.bounds, catalog.GridBoundsMeta{Field: b.Field, Min: b.Min, Max: b.Max, Cells: b.Cells})
		}
	}
	for _, run := range runs {
		out.rows = append(out.rows, run.rows...)
	}
	for _, def := range spec.Segments {
		proj, idx, err := rel.Schema.Project(def.Fields)
		if err != nil {
			t.Fatal(err)
		}
		var stream []byte
		var blocks []segment.BlockMeta
		var rowStart int64
		for _, run := range runs {
			for lo := 0; lo < len(run.rows); lo += spec.RowsPerBlock {
				block := run.rows[lo:min(lo+spec.RowsPerBlock, len(run.rows))]
				body := binary.LittleEndian.AppendUint64(nil, run.cell)
				body = binary.AppendUvarint(body, uint64(len(block)))
				var zones []segment.ZoneMap
				for c, f := range proj.Fields {
					col := make([]value.Value, len(block))
					for i, row := range block {
						col[i] = row[idx[c]]
					}
					codec, err := oracle.LookupCodec(def.Codecs[c])
					if err != nil {
						t.Fatal(err)
					}
					chunk, err := codec.Encode(nil, f.Type, col)
					if err != nil {
						t.Fatal(err)
					}
					body = binary.LittleEndian.AppendUint32(body, uint32(len(chunk)))
					body = append(body, chunk...)
					if f.Type == value.Int || f.Type == value.Float {
						zones = append(zones, oracleZone(f.Name, col))
					}
				}
				blocks = append(blocks, segment.BlockMeta{
					Off: uint64(len(stream)), Len: uint32(4 + len(body)), Rows: len(block),
					RowStart: rowStart, Cell: run.cell, Zones: zones,
				})
				stream = append(binary.LittleEndian.AppendUint32(stream, uint32(len(body))), body...)
				rowStart += int64(len(block))
			}
		}
		out.streams = append(out.streams, stream)
		out.blocks = append(out.blocks, blocks)
	}
	return out
}

// oracleZone is a block column's zone map over boxed values: NaN sorts
// below every number, so it takes the minimum to -Inf.
func oracleZone(field string, col []value.Value) segment.ZoneMap {
	z := segment.ZoneMap{Field: field, Min: math.Inf(1), Max: math.Inf(-1)}
	for _, v := range col {
		x := v.Float()
		if math.IsNaN(x) {
			z.Min = math.Inf(-1)
		}
		if x < z.Min {
			z.Min = x
		}
		if x > z.Max {
			z.Max = x
		}
	}
	return z
}

// oracleFold is readBack + render, boxed.
func oracleFold(t *testing.T, e *Engine, tab *catalog.Table, parts []catalog.Part) oraclePart {
	t.Helper()
	return oracleRender(t, e, tab, oracleReadBack(t, e, tab, parts), false)
}

// oracleRun is one run of the hierarchy a Compact leaves: its level, its
// stored rows and — when the Compact wrote it — the part the oracle expects.
type oracleRun struct {
	level int
	rows  []value.Row
	part  *oraclePart
}

// oracleCompact replays compactLocked's fold loop (the policy, pickFold, is
// shared) with the boxed fold, and returns the runs tab holds afterwards.
func oracleCompact(t *testing.T, e *Engine, tab *catalog.Table) []oracleRun {
	t.Helper()
	spec, err := e.compile(tab.LayoutExpr)
	if err != nil {
		t.Fatal(err)
	}
	var runs []oracleRun
	var tails []catalog.Part
	for _, p := range tab.Parts() {
		switch p.Kind {
		case catalog.PartRun:
			runs = append(runs, oracleRun{level: p.Level, rows: oracleReadBack(t, e, tab, []catalog.Part{p}).Rows})
		case catalog.PartTail:
			tails = append(tails, p)
		}
	}
	stored, err := storedSchema(tab)
	if err != nil {
		t.Fatal(err)
	}
	fold := func(level int, rows []value.Row) oracleRun {
		part := oracleRender(t, e, tab, transforms.Relation{Schema: stored, Rows: rows}, false)
		return oracleRun{level: level, rows: part.rows, part: &part}
	}
	if len(tails) > 0 {
		runs = append(runs, fold(1, oracleReadBack(t, e, tab, tails).Rows))
	}
	for {
		entries := make([]catalog.RunEntry, len(runs))
		for i, r := range runs {
			entries[i] = catalog.RunEntry{Level: r.level, Rows: int64(len(r.rows))}
		}
		lo, hi, level, ok := pickFold(entries, spec)
		if !ok {
			return runs
		}
		var rows []value.Row
		for _, r := range runs[lo:hi] {
			rows = append(rows, r.rows...)
		}
		runs = slices.Concat(runs[:lo], []oracleRun{fold(level, rows)}, runs[hi:])
	}
}

// requireRendered fails unless segs — a part the engine wrote — hold
// exactly the oracle's streams, block metadata and grid bounds.
func requireRendered(t *testing.T, e *Engine, what string, segs []catalog.SegmentEntry, bounds []catalog.GridBoundsMeta, want oraclePart) {
	t.Helper()
	if len(segs) != len(want.streams) {
		t.Fatalf("%s: %d segments, oracle %d", what, len(segs), len(want.streams))
	}
	for i, seg := range segs {
		stream, err := e.file.ReadRunInto(nil, seg.Meta.ExtentStart, seg.Meta.ExtentPages)
		if err != nil {
			t.Fatal(err)
		}
		stream = stream[:seg.Meta.UsedBytes]
		if !bytes.Equal(stream, want.streams[i]) {
			at := 0
			for at < min(len(stream), len(want.streams[i])) && stream[at] == want.streams[i][at] {
				at++
			}
			t.Fatalf("%s: segment %d: %d bytes, oracle %d, first difference at byte %d", what, i, len(stream), len(want.streams[i]), at)
		}
		if !reflect.DeepEqual(seg.Meta.Blocks, want.blocks[i]) {
			t.Fatalf("%s: segment %d block metadata\n got %+v\nwant %+v", what, i, seg.Meta.Blocks, want.blocks[i])
		}
		if seg.Meta.Rows != int64(len(want.rows)) {
			t.Fatalf("%s: segment %d holds %d rows, oracle %d", what, i, seg.Meta.Rows, len(want.rows))
		}
	}
	if !reflect.DeepEqual(bounds, want.bounds) {
		t.Fatalf("%s: grid bounds %+v, oracle %+v", what, bounds, want.bounds)
	}
}
