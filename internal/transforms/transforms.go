// Package transforms holds what the layout renderer and the optimizer share
// of the storage algebra's transforms (paper §3.5-3.6) over in-memory
// relations: the Relation itself, fold and unfold (the renderer materializes
// nestings with them before writing pages) and the grid discretization. The
// boxed row operators (select, project, order, group, limit, grid
// assignment) are test reference code in internal/oracle.
//
// Fold is implemented twice, exactly as §4.2 discusses: FoldNestedLoop is
// the paper's Algorithm 1 (two nested for-loops, O(n²)); FoldHash is the
// "hash-join like algorithm" that builds a hash table in one pass and emits
// groups in a second. Both produce identical output (tested by property),
// and the fold-rendering benchmark quantifies the difference.
package transforms

import (
	"fmt"
	"math"

	"rodentstore/internal/algebra"
	"rodentstore/internal/value"
)

// Relation is an in-memory table: a schema plus rows.
type Relation struct {
	Schema *value.Schema
	Rows   []value.Row
}

// foldOutputSchema builds the folded schema [by..., folded list].
func foldOutputSchema(s *value.Schema, values, by []string) (*value.Schema, []int, []int, error) {
	byIdx := make([]int, len(by))
	var fields []value.Field
	for i, f := range by {
		c := s.Index(f)
		if c < 0 {
			return nil, nil, nil, fmt.Errorf("transforms: fold: unknown key field %q", f)
		}
		byIdx[i] = c
		fields = append(fields, s.Fields[c])
	}
	valIdx := make([]int, len(values))
	name := "folded"
	for i, f := range values {
		c := s.Index(f)
		if c < 0 {
			return nil, nil, nil, fmt.Errorf("transforms: fold: unknown value field %q", f)
		}
		valIdx[i] = c
		name += "_" + f
	}
	fields = append(fields, value.Field{Name: name, Type: value.List})
	schema, err := value.NewSchema(fields...)
	if err != nil {
		return nil, nil, nil, err
	}
	return schema, byIdx, valIdx, nil
}

// foldEntry extracts the nested element for one row: a scalar when one value
// field is folded, a list when several are.
func foldEntry(row value.Row, valIdx []int) value.Value {
	if len(valIdx) == 1 {
		return row[valIdx[0]]
	}
	vs := make([]value.Value, len(valIdx))
	for i, c := range valIdx {
		vs[i] = row[c]
	}
	return value.NewList(vs...)
}

// FoldNestedLoop is the paper's Algorithm 1: for each row, if its key has
// not been emitted, scan the whole relation again collecting matching
// values. O(n²) but allocation-light — the baseline the rendering
// experiment compares against.
func FoldNestedLoop(rel Relation, values, by []string) (Relation, error) {
	schema, byIdx, valIdx, err := foldOutputSchema(rel.Schema, values, by)
	if err != nil {
		return Relation{}, err
	}
	key := func(row value.Row) value.Value {
		ks := make([]value.Value, len(byIdx))
		for i, c := range byIdx {
			ks[i] = row[c]
		}
		return value.NewList(ks...)
	}
	var out []value.Row
	var outerKeys []value.Value // outerList of Algorithm 1
	seen := func(k value.Value) bool {
		for _, ok := range outerKeys {
			if value.Equal(ok, k) {
				return true
			}
		}
		return false
	}
	for _, r := range rel.Rows {
		k := key(r)
		if seen(k) {
			continue
		}
		var inner []value.Value // innerList of Algorithm 1
		for _, r2 := range rel.Rows {
			if value.Equal(key(r2), k) {
				inner = append(inner, foldEntry(r2, valIdx))
			}
		}
		outerKeys = append(outerKeys, k)
		row := make(value.Row, 0, len(byIdx)+1)
		for _, c := range byIdx {
			row = append(row, r[c])
		}
		row = append(row, value.NewList(inner...))
		out = append(out, row)
	}
	return Relation{Schema: schema, Rows: out}, nil
}

// FoldHash is the hash-join-like fold of §4.2: one pass builds a hash table
// keyed on A, a second emits each key with its collected B values. Output
// order (first appearance of each key; row order within groups) matches
// FoldNestedLoop exactly.
func FoldHash(rel Relation, values, by []string) (Relation, error) {
	schema, byIdx, valIdx, err := foldOutputSchema(rel.Schema, values, by)
	if err != nil {
		return Relation{}, err
	}
	type group struct {
		keyRow value.Row
		key    value.Value
		inner  []value.Value
	}
	var groups []group
	index := make(map[uint64][]int)
	for _, r := range rel.Rows {
		ks := make([]value.Value, len(byIdx))
		for i, c := range byIdx {
			ks[i] = r[c]
		}
		k := value.NewList(ks...)
		h := k.Hash()
		found := -1
		for _, gi := range index[h] {
			if value.Equal(groups[gi].key, k) {
				found = gi
				break
			}
		}
		if found < 0 {
			found = len(groups)
			groups = append(groups, group{keyRow: value.Row(ks), key: k})
			index[h] = append(index[h], found)
		}
		groups[found].inner = append(groups[found].inner, foldEntry(r, valIdx))
	}
	out := make([]value.Row, len(groups))
	for i, g := range groups {
		out[i] = append(g.keyRow.Clone(), value.NewList(g.inner...))
	}
	return Relation{Schema: schema, Rows: out}, nil
}

// Unfold reverses a fold produced with the given values/by fields,
// recovering the flat relation (rows ordered group by group).
func Unfold(rel Relation, values []string, valueTypes []value.Kind) (Relation, error) {
	n := rel.Schema.Arity()
	if n == 0 || rel.Schema.Fields[n-1].Type != value.List {
		return Relation{}, fmt.Errorf("transforms: unfold: input is not folded")
	}
	if len(values) != len(valueTypes) {
		return Relation{}, fmt.Errorf("transforms: unfold: %d names but %d types", len(values), len(valueTypes))
	}
	var fields []value.Field
	fields = append(fields, rel.Schema.Fields[:n-1]...)
	for i, v := range values {
		fields = append(fields, value.Field{Name: v, Type: valueTypes[i]})
	}
	schema, err := value.NewSchema(fields...)
	if err != nil {
		return Relation{}, err
	}
	var out []value.Row
	for _, row := range rel.Rows {
		nested := row[n-1]
		if nested.Kind() != value.List {
			return Relation{}, fmt.Errorf("transforms: unfold: folded field is %s", nested.Kind())
		}
		for _, entry := range nested.List() {
			nr := make(value.Row, 0, len(fields))
			nr = append(nr, row[:n-1]...)
			if len(values) == 1 {
				nr = append(nr, entry)
			} else {
				if entry.Kind() != value.List || entry.Len() != len(values) {
					return Relation{}, fmt.Errorf("transforms: unfold: entry arity mismatch")
				}
				nr = append(nr, entry.List()...)
			}
			out = append(out, nr)
		}
	}
	return Relation{Schema: schema, Rows: out}, nil
}

// GridBounds holds the discretization of one grid dimension: the value
// interval and cell count (stride = (Max-Min)/Cells, the paper's grid
// strides resolved against data statistics).
type GridBounds struct {
	Field    string
	Col      int
	Min, Max float64
	Cells    int
}

// CellOf maps a value to its cell index along this dimension, clamped to
// [0, Cells-1]. The clamp happens before the conversion to int, which is
// undefined for a float out of int's range; NaN goes to cell 0.
func (b GridBounds) CellOf(v float64) int {
	if b.Max <= b.Min {
		return 0
	}
	c := math.Floor((v - b.Min) / (b.Max - b.Min) * float64(b.Cells))
	switch {
	case math.IsNaN(c) || c < 0:
		return 0
	case c >= float64(b.Cells):
		return b.Cells - 1
	}
	return int(c)
}

// ComputeGridBounds derives per-dimension bounds from the data (min/max of
// each grid attribute).
func ComputeGridBounds(rel Relation, dims []algebra.GridDim) ([]GridBounds, error) {
	out := make([]GridBounds, len(dims))
	for i, d := range dims {
		c := rel.Schema.Index(d.Field)
		if c < 0 {
			return nil, fmt.Errorf("transforms: grid: unknown field %q", d.Field)
		}
		if t := rel.Schema.Fields[c].Type; t != value.Int && t != value.Float {
			return nil, fmt.Errorf("transforms: grid: field %q is %s, not numeric", d.Field, t)
		}
		b := GridBounds{Field: d.Field, Col: c, Cells: d.Cells, Min: math.Inf(1), Max: math.Inf(-1)}
		for _, row := range rel.Rows {
			if row[c].IsNull() {
				return nil, fmt.Errorf("transforms: grid: null value in dimension %q", d.Field)
			}
			v := row[c].Float()
			if v < b.Min {
				b.Min = v
			}
			if v > b.Max {
				b.Max = v
			}
		}
		if len(rel.Rows) == 0 {
			b.Min, b.Max = 0, 0
		}
		out[i] = b
	}
	return out, nil
}

// CellCoords inverts a row-major cell index (first dimension slowest) back
// to per-dimension cell coordinates.
func CellCoords(idx uint64, bounds []GridBounds) []int {
	out := make([]int, len(bounds))
	for i := len(bounds) - 1; i >= 0; i-- {
		out[i] = int(idx % uint64(bounds[i].Cells))
		idx /= uint64(bounds[i].Cells)
	}
	return out
}
