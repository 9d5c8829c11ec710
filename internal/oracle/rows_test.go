package oracle

import (
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/transforms"
	"rodentstore/internal/value"
)

func areasRel() transforms.Relation {
	s := value.MustSchema(
		value.Field{Name: "area", Type: value.Int},
		value.Field{Name: "zip", Type: value.Int},
		value.Field{Name: "addr", Type: value.Str},
	)
	return transforms.Relation{Schema: s, Rows: []value.Row{
		{value.NewInt(617), value.NewInt(2139), value.NewString("32 Vassar St")},
		{value.NewInt(212), value.NewInt(10001), value.NewString("350 5th Ave")},
		{value.NewInt(617), value.NewInt(2142), value.NewString("1 Broadway")},
		{value.NewInt(617), value.NewInt(2138), value.NewString("1 Oxford St")},
		{value.NewInt(212), value.NewInt(10002), value.NewString("B St")},
	}}
}

func TestProject(t *testing.T) {
	rel := areasRel()
	got, err := Project(rel, []string{"zip", "area"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema.String() != "zip:int, area:int" {
		t.Errorf("schema: %s", got.Schema)
	}
	if got.Rows[0][0].Int() != 2139 || got.Rows[0][1].Int() != 617 {
		t.Errorf("row 0: %v", got.Rows[0])
	}
	if _, err := Project(rel, []string{"nope"}); err == nil {
		t.Error("expected error for unknown field")
	}
}

func TestSelect(t *testing.T) {
	rel := areasRel()
	pred := algebra.True.And("area", algebra.OpEq, value.NewInt(617))
	sel, err := Select(rel, pred)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Rows) != 3 {
		t.Errorf("select rows: %d", len(sel.Rows))
	}
	bad := algebra.True.And("nope", algebra.OpEq, value.NewInt(1))
	if _, err := Select(rel, bad); err == nil {
		t.Error("bad predicate should fail")
	}
}

func TestOrderBy(t *testing.T) {
	rel := areasRel()
	got, err := OrderBy(rel, []algebra.OrderKey{{Field: "zip"}})
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	for _, r := range got.Rows {
		if r[1].Int() < prev {
			t.Fatal("not sorted")
		}
		prev = r[1].Int()
	}
	// Original must be untouched (Clone semantics).
	if areasRel().Rows[0][1].Int() != 2139 {
		t.Error("input mutated")
	}
	desc, _ := OrderBy(rel, []algebra.OrderKey{{Field: "zip", Desc: true}})
	if desc.Rows[0][1].Int() != 10002 {
		t.Errorf("desc first: %v", desc.Rows[0])
	}
	if _, err := OrderBy(rel, []algebra.OrderKey{{Field: "nope"}}); err == nil {
		t.Error("unknown field should fail")
	}
}

func TestGroupByClusters(t *testing.T) {
	rel := areasRel()
	got, err := GroupBy(rel, []string{"area"})
	if err != nil {
		t.Fatal(err)
	}
	wantAreas := []int64{617, 617, 617, 212, 212}
	for i, r := range got.Rows {
		if r[0].Int() != wantAreas[i] {
			t.Fatalf("row %d area %d, want %d", i, r[0].Int(), wantAreas[i])
		}
	}
	// Within-group order preserved: zips 2139, 2142, 2138.
	if got.Rows[0][1].Int() != 2139 || got.Rows[1][1].Int() != 2142 || got.Rows[2][1].Int() != 2138 {
		t.Error("within-group order not preserved")
	}
	if _, err := GroupBy(rel, []string{"nope"}); err == nil {
		t.Error("unknown field should fail")
	}
}

func TestLimit(t *testing.T) {
	rel := areasRel()
	if got := Limit(rel, 2); len(got.Rows) != 2 {
		t.Errorf("limit 2: %d", len(got.Rows))
	}
	if got := Limit(rel, 100); len(got.Rows) != 5 {
		t.Errorf("limit 100: %d", len(got.Rows))
	}
	if got := Limit(rel, -1); len(got.Rows) != 5 {
		t.Errorf("limit -1 should mean all: %d", len(got.Rows))
	}
}

func TestFoldUnfoldRoundtrip(t *testing.T) {
	rel := areasRel()
	folded, err := transforms.FoldHash(rel, []string{"zip", "addr"}, []string{"area"})
	if err != nil {
		t.Fatal(err)
	}
	back, err := transforms.Unfold(folded, []string{"zip", "addr"}, []value.Kind{value.Int, value.Str})
	if err != nil {
		t.Fatal(err)
	}
	// transforms.Unfold emits group-by-group: same multiset as GroupBy(area).
	grouped, _ := GroupBy(rel, []string{"area"})
	if len(back.Rows) != len(grouped.Rows) {
		t.Fatalf("row count: %d vs %d", len(back.Rows), len(grouped.Rows))
	}
	for i := range back.Rows {
		if back.Rows[i][0].Int() != grouped.Rows[i][0].Int() ||
			back.Rows[i][1].Int() != grouped.Rows[i][1].Int() ||
			back.Rows[i][2].Str() != grouped.Rows[i][2].Str() {
			t.Fatalf("row %d: %v vs %v", i, back.Rows[i], grouped.Rows[i])
		}
	}
}

func TestGridBoundsAndAssign(t *testing.T) {
	s := value.MustSchema(
		value.Field{Name: "x", Type: value.Float},
		value.Field{Name: "y", Type: value.Float},
	)
	var rows []value.Row
	for i := 0; i < 100; i++ {
		rows = append(rows, value.Row{
			value.NewFloat(float64(i % 10)),
			value.NewFloat(float64(i / 10)),
		})
	}
	rel := transforms.Relation{Schema: s, Rows: rows}
	bounds, err := GridBounds(rel, []algebra.GridDim{{Field: "x", Cells: 5}, {Field: "y", Cells: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if bounds[0].Min != 0 || bounds[0].Max != 9 || bounds[0].Cells != 5 {
		t.Errorf("bounds[0]: %+v", bounds[0])
	}
	cells, err := GridAssign(rel, bounds)
	if err != nil {
		t.Fatal(err)
	}
	// 5x5 grid over a uniform 10x10 lattice: 25 non-empty cells, 4 rows each.
	if len(cells) != 25 {
		t.Fatalf("cells: %d", len(cells))
	}
	total := 0
	for idx, cellRows := range cells {
		total += len(cellRows)
		coords := transforms.CellCoords(idx, bounds)
		// Every row in the cell must map back to the same coordinates.
		for _, r := range cellRows {
			if bounds[0].CellOf(r[0].Float()) != coords[0] || bounds[1].CellOf(r[1].Float()) != coords[1] {
				t.Fatalf("cell %d contains row %v outside its bounds", idx, r)
			}
		}
	}
	if total != 100 {
		t.Errorf("assigned rows: %d", total)
	}
}

func TestGridEdgeCases(t *testing.T) {
	s := value.MustSchema(value.Field{Name: "x", Type: value.Float})
	// Constant dimension: everything lands in cell 0.
	rel := transforms.Relation{Schema: s, Rows: []value.Row{
		{value.NewFloat(5)}, {value.NewFloat(5)},
	}}
	bounds, err := GridBounds(rel, []algebra.GridDim{{Field: "x", Cells: 4}})
	if err != nil {
		t.Fatal(err)
	}
	cells, err := GridAssign(rel, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || len(cells[0]) != 2 {
		t.Errorf("constant dim cells: %v", cells)
	}
	// Max value must clamp into the last cell, not overflow.
	if c := (transforms.GridBounds{Min: 0, Max: 10, Cells: 4}).CellOf(10); c != 3 {
		t.Errorf("max clamps to %d", c)
	}
	if c := (transforms.GridBounds{Min: 0, Max: 10, Cells: 4}).CellOf(-1); c != 0 {
		t.Errorf("below-min clamps to %d", c)
	}
	// Nulls rejected.
	relNull := transforms.Relation{Schema: s, Rows: []value.Row{{value.NullValue()}}}
	if _, err := GridBounds(relNull, []algebra.GridDim{{Field: "x", Cells: 2}}); err == nil {
		t.Error("null in grid dimension should fail")
	}
	// Empty relation is fine.
	relEmpty := transforms.Relation{Schema: s}
	b, err := GridBounds(relEmpty, []algebra.GridDim{{Field: "x", Cells: 2}})
	if err != nil || b[0].Min != 0 || b[0].Max != 0 {
		t.Errorf("empty bounds: %+v %v", b, err)
	}
}
