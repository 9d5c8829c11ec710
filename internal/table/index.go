package table

import (
	"fmt"
	"sort"

	"rodentstore/internal/algebra"
	"rodentstore/internal/btree"
	"rodentstore/internal/catalog"
	"rodentstore/internal/pager"
	"rodentstore/internal/value"
)

// Secondary B+tree indexes (paper §1: "RodentStore will include both
// B+Trees as well as a variety of geo-spatial indices"; the paper explicitly
// does not innovate here, and neither do we). An index maps one field's
// values to row positions in the table's stored order.
//
// Indexes describe a specific rendering of the main segments: operations
// that rewrite the stored order (Reorganize, AlterLayout, Load) drop them;
// rebuild with CreateIndex. Tail-only Inserts do NOT drop indexes — an
// appended tail shifts no existing position, so the tree stays valid for
// the prefix it covers (IndexMeta.Rows) and IndexScan post-scans the
// unindexed suffix. A dropped index's tree pages are reclaimed by the flip
// that drops it, like any superseded segment.

// CreateIndex builds a B+tree over the named field of the table's stored
// rows. The field must be stored by the current layout.
func (e *Engine) CreateIndex(tableName, field string) error {
	return e.withLock(tableName, exclusive, func() error {
		tab, err := e.cat.Get(tableName)
		if err != nil {
			return err
		}
		for _, idx := range tab.Indexes {
			if idx.Field == field {
				return fmt.Errorf("table: index on %s(%s) already exists", tableName, field)
			}
		}
		stored, err := storedSchema(tab)
		if err != nil {
			return err
		}
		fi := stored.Index(field)
		if fi < 0 {
			return fmt.Errorf("table: cannot index %q: not stored by layout %s", field, tab.LayoutExpr)
		}
		if stored.Fields[fi].Type == value.List {
			return fmt.Errorf("table: cannot index folded field %q", field)
		}
		tree, err := btree.New(e.file)
		if err != nil {
			return err
		}
		cur, err := e.scanStored(tab, []string{field}, algebra.True, true)
		if err != nil {
			return err
		}
		defer cur.Close()
		pos := uint64(0)
		for {
			row, ok, err := cur.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if !row[0].IsNull() {
				if err := tree.Insert(btree.EncodeKey(row[0]), pos); err != nil {
					return err
				}
			}
			pos++
		}
		// Copy-on-write: Put swaps the finished record in under the catalog
		// lock, so a concurrent checkpoint flush never encodes a half-updated
		// table (see catalog.Catalog.Get).
		work := *tab
		work.Indexes = append(append([]catalog.IndexMeta(nil), tab.Indexes...), catalog.IndexMeta{
			Field: field, Root: uint64(tree.Root()), Rows: tab.RowCount,
		})
		return e.cat.Put(&work)
	})
}

// DropIndex removes the index on the given field.
func (e *Engine) DropIndex(tableName, field string) error {
	return e.withLock(tableName, exclusive, func() error {
		tab, err := e.cat.Get(tableName)
		if err != nil {
			return err
		}
		for i, idx := range tab.Indexes {
			if idx.Field == field {
				work := *tab
				work.Indexes = append(append([]catalog.IndexMeta(nil), tab.Indexes[:i]...), tab.Indexes[i+1:]...)
				return e.flip(&work, nil, []catalog.IndexMeta{idx})
			}
		}
		return fmt.Errorf("table: no index on %s(%s)", tableName, field)
	})
}

// Indexes lists the indexed fields of a table.
func (e *Engine) Indexes(tableName string) ([]string, error) {
	tab, err := e.cat.Get(tableName)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(tab.Indexes))
	for i, idx := range tab.Indexes {
		out[i] = idx.Field
	}
	return out, nil
}

// IndexScan runs a range lookup through the index on field and returns the
// matching rows (post-filtered by pred, projected to fields). It reads only
// the blocks containing matching positions — for selective predicates this
// touches far fewer pages than a scan, at the cost of index node reads and
// seeks (the classic secondary-index trade the paper's Figure 2 probes with
// its R-tree).
func (e *Engine) IndexScan(tableName string, fields []string, pred algebra.Predicate, indexField string) (*Cursor, error) {
	var cur *Cursor
	err := e.withLock(tableName, shared, func() error {
		tab, err := e.cat.Get(tableName)
		if err != nil {
			return err
		}
		var root pager.PageID
		indexedRows := int64(0)
		found := false
		for _, idx := range tab.Indexes {
			if idx.Field == indexField {
				root = pager.PageID(idx.Root)
				indexedRows = idx.Rows
				found = true
			}
		}
		if !found {
			return fmt.Errorf("table: no index on %s(%s)", tableName, indexField)
		}
		lo, hi, loOpen, hiOpen, ok := pred.Bounds(indexField)
		if !ok {
			return fmt.Errorf("table: predicate does not constrain indexed field %q", indexField)
		}
		tree := btree.Open(e.file, root)
		var loKey, hiKey []byte
		if !lo.IsNull() {
			loKey = btree.EncodeKey(lo)
		}
		if !hi.IsNull() {
			hiKey = btree.EncodeKey(hi)
		}
		var positions []int64
		err = tree.Range(loKey, hiKey, func(key []byte, v uint64) bool {
			positions = append(positions, int64(v))
			return true
		})
		if err != nil {
			return err
		}
		// Strict bounds re-checked by the predicate during materialization;
		// loOpen/hiOpen only widen the candidate set.
		_ = loOpen
		_ = hiOpen
		sort.Slice(positions, func(i, j int) bool { return positions[i] < positions[j] })
		// Rows appended since the index was built (tail batches) are not in
		// the tree; add them as an unindexed suffix of candidates — the
		// predicate post-filter below rejects non-matches. Every tree hit is
		// below indexedRows, so the combined list stays sorted. This is one
		// candidate per tail row, so the suffix cost grows with tail size:
		// the merge policy (EnableAutoMerge) is what keeps it bounded. A
		// future refinement could scan the tail batches directly with the
		// predicate (zone maps apply) instead of materializing positions.
		for p := indexedRows; p < tab.RowCount; p++ {
			positions = append(positions, p)
		}

		// Fetch the raw rows at those positions (no predicate: filtering
		// would compact block offsets and break the position mapping), then
		// post-filter and project.
		stored, err := storedSchema(tab)
		if err != nil {
			return err
		}
		outFields := fields
		if outFields == nil {
			outFields = stored.Names()
		}
		needSet := map[string]bool{}
		for _, f := range outFields {
			needSet[f] = true
		}
		for _, f := range pred.Fields() {
			needSet[f] = true
		}
		var decoded []string
		for _, f := range stored.Names() {
			if needSet[f] {
				decoded = append(decoded, f)
			}
		}
		raw, err := e.scanStored(tab, decoded, algebra.True, true)
		if err != nil {
			return err
		}
		rows, err := raw.fetchPositions(positions)
		if err != nil {
			return err
		}
		outSchema, outIdx, err := raw.schema.Project(outFields)
		if err != nil {
			return err
		}
		var final []value.Row
		for _, r := range rows {
			if !pred.Eval(raw.schema, r) {
				continue
			}
			pr := make(value.Row, len(outIdx))
			for i, c := range outIdx {
				pr[i] = r[c]
			}
			final = append(final, pr)
		}
		cur = &Cursor{schema: outSchema, sorted: final}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cur, nil
}

// fetchPositions materializes the rows at the given stored positions
// (ascending), reading each containing block once. The cursor must be a
// fresh unfiltered one, so an in-block offset is a stored position.
func (c *Cursor) fetchPositions(positions []int64) ([]value.Row, error) {
	var out []value.Row
	pi := 0
	// Walk blocks in order, draining positions that fall inside each.
	var before int64
	for bi, ref := range c.plan.blocks {
		if pi >= len(positions) {
			break
		}
		blockLo := before
		before += int64(blockRowCount(c.plan.parts[ref.part], ref.block))
		if positions[pi] >= before {
			continue
		}
		// Decode this block once and pick the requested offsets.
		c.cur = bi
		if err := c.advance(); err != nil {
			return nil, err
		}
		for ; pi < len(positions) && positions[pi] < before; pi++ {
			if off := int(positions[pi] - blockLo); off < c.batch.Len() {
				out = append(out, c.batch.Row(off))
			}
		}
	}
	return out, nil
}
