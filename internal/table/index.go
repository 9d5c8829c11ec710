package table

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
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
		tree, err := e.buildIndex(tab, field)
		if err != nil {
			return err
		}
		// Copy-on-write: publish swaps the finished record in under the
		// catalog lock, so a concurrent checkpoint flush never encodes a
		// half-updated table (see catalog.Catalog.Get).
		work := *tab
		work.Indexes = append(append([]catalog.IndexMeta(nil), tab.Indexes...), catalog.IndexMeta{
			Field: field, Root: uint64(tree.Root()), Rows: tab.RowCount,
		})
		if _, err := e.publish(&work); err != nil {
			return err
		}
		return e.checkpoint()
	})
}

// buildIndex reads the field's column in stored order, batch by batch,
// sorts its (key, position) entries and bulk-builds the tree over them. Null
// values are not indexed.
func (e *Engine) buildIndex(tab *catalog.Table, field string) (*btree.Tree, error) {
	plan, err := e.planScan(tab, tab.Parts(), []string{field}, algebra.True, storedScanOpts{})
	if err != nil {
		return nil, err
	}
	cur := newCursor(plan)
	defer cur.Close()
	type entry struct {
		lo, hi int // the key, in arena
		pos    uint64
	}
	var arena []byte
	var entries []entry
	var pos uint64
	for {
		b, ok, err := cur.NextBatch()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		col := &b.Cols[0]
		for i := range b.Len() {
			if !col.IsNull(i) {
				lo := len(arena)
				if k := col.Kind(); k == value.Str || k == value.Bytes {
					arena = append(arena, col.BytesAt(i)...) // EncodeKey's encoding, unboxed
				} else {
					arena = btree.AppendKey(arena, col.Value(i))
				}
				entries = append(entries, entry{lo, len(arena), pos})
			}
			pos++
		}
	}
	key := func(en entry) []byte { return arena[en.lo:en.hi] }
	slices.SortFunc(entries, func(a, b entry) int {
		if c := bytes.Compare(key(a), key(b)); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	keys := make([][]byte, len(entries))
	vals := make([]uint64, len(entries))
	for i, en := range entries {
		keys[i], vals[i] = key(en), en.pos
	}
	return btree.Build(e.file, keys, vals)
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
				if err := e.flip(&work, nil); err != nil {
					return err
				}
				return e.checkpoint()
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
		plan, err := e.planScan(tab, tab.Parts(), fields, pred, storedScanOpts{})
		if err != nil {
			return err
		}
		// The tree range is inclusive; the compiled filter applies strict
		// bounds and every other conjunct.
		kind := plan.decoded.Fields[plan.decoded.Index(indexField)].Type
		loKey, noneLo := indexKey(kind, lo, true)
		hiKey, noneHi := indexKey(kind, hi, false)
		var hits []int64
		if !noneLo && !noneHi {
			err = btree.Open(e.file, pager.PageID(ix.Root)).Range(loKey, hiKey, func(_ []byte, pos uint64) bool {
				if int64(pos) < ix.Rows {
					hits = append(hits, int64(pos))
				}
				return true
			})
			if err != nil {
				return err
			}
		}
		slices.Sort(hits)
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
		cur = newCursor(plan)
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

// indexKey encodes a predicate bound for the tree of an index over a field
// of kind k (nil: that end is open). EncodeKey orders keys within one kind,
// so a literal of the other numeric kind is widened to k the way the
// compiled filter compares it: an Int bound on a Float field as its float;
// a Float bound on an Int field rounded inward, ceil for lo and floor for
// hi (the filter still applies the exact bound). none reports a bound no
// value of k satisfies. A NaN sorts below every number: as lo it bounds
// nothing; as hi it admits only NaN rows — none in an Int field, and none a
// Float index's key order finds by range — so that end is left open there
// for the filter to decide.
func indexKey(k value.Kind, v value.Value, lower bool) (key []byte, none bool) {
	if v.IsNull() {
		return nil, false
	}
	if v.Kind() == value.Float && math.IsNaN(v.Float()) {
		return nil, k == value.Int && !lower
	}
	switch {
	case k == value.Float && v.Kind() == value.Int:
		v = value.NewFloat(v.Float())
	case k == value.Int && v.Kind() == value.Float:
		f := math.Floor(v.Float())
		if lower {
			f = math.Ceil(v.Float())
		}
		switch {
		case f < math.MinInt64:
			return nil, !lower
		case f >= math.MaxInt64: // 2^63: beyond every int64
			return nil, lower
		}
		v = value.NewInt(int64(f))
	}
	return btree.EncodeKey(v), false
}
