package oracle

// The row-relation operators over transforms.Relation: the reference the
// layout renderer's vector steps are compared against.

import (
	"fmt"

	"rodentstore/internal/algebra"
	"rodentstore/internal/transforms"
	"rodentstore/internal/value"
)

// Project isolates the named fields (paper §3.5.1 project).
func Project(rel transforms.Relation, fields []string) (transforms.Relation, error) {
	schema, idx, err := rel.Schema.Project(fields)
	if err != nil {
		return transforms.Relation{}, err
	}
	rows := make([]value.Row, len(rel.Rows))
	for i, row := range rel.Rows {
		nr := make(value.Row, len(idx))
		for j, src := range idx {
			nr[j] = row[src]
		}
		rows[i] = nr
	}
	return transforms.Relation{Schema: schema, Rows: rows}, nil
}

// Select keeps rows satisfying the predicate (paper §3.5.1 select).
func Select(rel transforms.Relation, pred algebra.Predicate) (transforms.Relation, error) {
	if err := pred.Validate(rel.Schema); err != nil {
		return transforms.Relation{}, err
	}
	var rows []value.Row
	for _, row := range rel.Rows {
		if Eval(pred, rel.Schema, row) {
			rows = append(rows, row)
		}
	}
	return transforms.Relation{Schema: rel.Schema, Rows: rows}, nil
}

// OrderBy stably sorts a copy of the rows by the keys (paper §3.5.3
// orderby); rel is left as it was.
func OrderBy(rel transforms.Relation, keys []algebra.OrderKey) (transforms.Relation, error) {
	cols := make([]int, len(keys))
	desc := make([]bool, len(keys))
	for i, k := range keys {
		c := rel.Schema.Index(k.Field)
		if c < 0 {
			return transforms.Relation{}, fmt.Errorf("transforms: orderby: unknown field %q", k.Field)
		}
		cols[i], desc[i] = c, k.Desc
	}
	rows := make([]value.Row, len(rel.Rows))
	for i, row := range rel.Rows {
		rows[i] = row.Clone()
	}
	value.SortRows(rows, cols, desc)
	return transforms.Relation{Schema: rel.Schema, Rows: rows}, nil
}

// GroupBy clusters rows with equal key values contiguously, preserving the
// first-appearance order of groups and the relative order within each group
// (the paper's groupby clause on flat rows).
func GroupBy(rel transforms.Relation, fields []string) (transforms.Relation, error) {
	cols := make([]int, len(fields))
	for i, f := range fields {
		c := rel.Schema.Index(f)
		if c < 0 {
			return transforms.Relation{}, fmt.Errorf("transforms: groupby: unknown field %q", f)
		}
		cols[i] = c
	}
	key := func(row value.Row) value.Value {
		ks := make([]value.Value, len(cols))
		for i, c := range cols {
			ks[i] = row[c]
		}
		return value.NewList(ks...)
	}
	type group struct {
		k    value.Value
		rows []value.Row
	}
	var groups []group
	index := make(map[uint64][]int)
	for _, row := range rel.Rows {
		k := key(row)
		h := k.Hash()
		found := -1
		for _, gi := range index[h] {
			if value.Equal(groups[gi].k, k) {
				found = gi
				break
			}
		}
		if found < 0 {
			found = len(groups)
			groups = append(groups, group{k: k})
			index[h] = append(index[h], found)
		}
		groups[found].rows = append(groups[found].rows, row)
	}
	out := make([]value.Row, 0, len(rel.Rows))
	for _, g := range groups {
		out = append(out, g.rows...)
	}
	return transforms.Relation{Schema: rel.Schema, Rows: out}, nil
}

// Limit keeps the first n rows.
func Limit(rel transforms.Relation, n int) transforms.Relation {
	if n < 0 || n > len(rel.Rows) {
		n = len(rel.Rows)
	}
	return transforms.Relation{Schema: rel.Schema, Rows: rel.Rows[:n]}
}

// GridAssign partitions rows into cells. The returned map is keyed by the
// linearized row-major cell index; each cell keeps its rows in input order.
func GridAssign(rel transforms.Relation, bounds []transforms.GridBounds) (map[uint64][]value.Row, error) {
	cells := make(map[uint64][]value.Row)
	for _, row := range rel.Rows {
		idx, err := cellIndex(row, bounds)
		if err != nil {
			return nil, err
		}
		cells[idx] = append(cells[idx], row)
	}
	return cells, nil
}

// cellIndex linearizes the cell coordinates of a row in row-major order
// (first dimension varies slowest); transforms.CellCoords inverts it.
func cellIndex(row value.Row, bounds []transforms.GridBounds) (uint64, error) {
	var idx uint64
	for _, b := range bounds {
		if row[b.Col].IsNull() {
			return 0, fmt.Errorf("transforms: grid: null value in dimension %q", b.Field)
		}
		idx = idx*uint64(b.Cells) + uint64(b.CellOf(row[b.Col].Float()))
	}
	return idx, nil
}
