package table

import (
	"fmt"
	"slices"

	"rodentstore/internal/algebra"
	"rodentstore/internal/btree"
	"rodentstore/internal/catalog"
	"rodentstore/internal/pager"
	"rodentstore/internal/value"
)

// Secondary B+tree indexes (paper §1: "RodentStore will include both
// B+Trees as well as a variety of geo-spatial indices"; the paper explicitly
// does not innovate here, and neither do we). An index maps one field's
// values to row positions in the table's stored order, for the prefix of
// positions it covers (IndexMeta.Rows).
//
// Inserts append parts and shift no position, so they leave an index as it
// is; IndexScan answers the parts past its coverage with a pruned predicate
// scan. A fold replaces parts in place, and flip clamps every index's
// coverage to the first position the fold replaced: Compact keeps an index
// valid for the parts before the folded ones, while Reorganize, AlterLayout
// and Load replace position 0 and so drop it (rebuild with CreateIndex). A
// dropped index's tree pages are reclaimed by that flip, like any superseded
// segment.

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
		plan, err := e.planScan(tab, tab.Parts(), []string{field}, algebra.True, storedScanOpts{})
		if err != nil {
			return err
		}
		cur := newCursor(plan, false, 0)
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
				return e.flip(&work, nil)
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
// matching rows (filtered by the whole of pred, projected to fields) in
// stored order. It is a block selection over planScan's plan: blocks wholly
// inside the index's coverage are kept only when the tree range holds a hit
// in them, and blocks of later parts are kept as the pruner left them. The
// chosen blocks then run through the ordinary block pipeline — for selective
// predicates far fewer pages than a scan, at the cost of index node reads
// and seeks (the classic secondary-index trade the paper's Figure 2 probes
// with its R-tree).
func (e *Engine) IndexScan(tableName string, fields []string, pred algebra.Predicate, indexField string) (*Cursor, error) {
	var cur *Cursor
	err := e.withLock(tableName, shared, func() error {
		tab, err := e.cat.Get(tableName)
		if err != nil {
			return err
		}
		i := slices.IndexFunc(tab.Indexes, func(ix catalog.IndexMeta) bool { return ix.Field == indexField })
		if i < 0 {
			return fmt.Errorf("table: no index on %s(%s)", tableName, indexField)
		}
		ix := tab.Indexes[i]
		lo, hi, _, _, ok := pred.Bounds(indexField)
		if !ok {
			return fmt.Errorf("table: predicate does not constrain indexed field %q", indexField)
		}
		// The tree range is inclusive; the compiled filter applies strict
		// bounds and every other conjunct.
		var loKey, hiKey []byte
		if !lo.IsNull() {
			loKey = btree.EncodeKey(lo)
		}
		if !hi.IsNull() {
			hiKey = btree.EncodeKey(hi)
		}
		var hits []int64
		err = btree.Open(e.file, pager.PageID(ix.Root)).Range(loKey, hiKey, func(_ []byte, pos uint64) bool {
			if int64(pos) < ix.Rows {
				hits = append(hits, int64(pos))
			}
			return true
		})
		if err != nil {
			return err
		}
		slices.Sort(hits)
		plan, err := e.planScan(tab, tab.Parts(), fields, pred, storedScanOpts{})
		if err != nil {
			return err
		}
		kept := plan.blocks[:0]
		for _, ref := range plan.blocks {
			blo, bhi := plan.span(ref)
			h, _ := slices.BinarySearch(hits, blo)
			if bhi > ix.Rows || h < len(hits) && hits[h] < bhi {
				kept = append(kept, ref)
			}
		}
		plan.blocks = kept
		// Drained under the shared lock: nothing keeps a fold from freeing
		// the blocks' extents once it is released.
		cur = newCursor(plan, false, 0)
		if err := cur.materialize(nil); err != nil {
			cur.Close()
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cur, nil
}
