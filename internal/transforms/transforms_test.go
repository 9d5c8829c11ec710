package transforms

import (
	"math"
	"math/rand"
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/value"
)

func areasRel() Relation {
	s := value.MustSchema(
		value.Field{Name: "area", Type: value.Int},
		value.Field{Name: "zip", Type: value.Int},
		value.Field{Name: "addr", Type: value.Str},
	)
	return Relation{Schema: s, Rows: []value.Row{
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

func TestFoldMatchesPaperExample(t *testing.T) {
	// fold zip,addr by area: [Area1, [[Zip11, Addr11], ...]], ... (paper §3.5.2).
	rel := areasRel()
	got, err := FoldNestedLoop(rel, []string{"zip", "addr"}, []string{"area"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema.String() != "area:int, folded_zip_addr:list" {
		t.Errorf("schema: %s", got.Schema)
	}
	if len(got.Rows) != 2 {
		t.Fatalf("groups: %d", len(got.Rows))
	}
	// First group is area 617 (first appearance), with three [zip addr] pairs.
	if got.Rows[0][0].Int() != 617 {
		t.Errorf("group 0 key: %v", got.Rows[0][0])
	}
	nested := got.Rows[0][1].List()
	if len(nested) != 3 {
		t.Fatalf("group 0 size: %d", len(nested))
	}
	if nested[0].List()[0].Int() != 2139 || nested[0].List()[1].Str() != "32 Vassar St" {
		t.Errorf("group 0 entry 0: %v", nested[0])
	}
}

func TestFoldHashEqualsNestedLoop(t *testing.T) {
	// Property (paper §4.2): the hash rendering must produce exactly the
	// nested-loop rendering.
	r := rand.New(rand.NewSource(3))
	s := value.MustSchema(
		value.Field{Name: "a", Type: value.Int},
		value.Field{Name: "b", Type: value.Int},
		value.Field{Name: "c", Type: value.Str},
	)
	for trial := 0; trial < 30; trial++ {
		n := r.Intn(60)
		rows := make([]value.Row, n)
		for i := range rows {
			rows[i] = value.Row{
				value.NewInt(int64(r.Intn(5))),
				value.NewInt(int64(r.Intn(100))),
				value.NewString(string(rune('a' + r.Intn(4)))),
			}
		}
		rel := Relation{Schema: s, Rows: rows}
		for _, spec := range []struct{ vals, by []string }{
			{[]string{"b"}, []string{"a"}},
			{[]string{"b", "c"}, []string{"a"}},
			{[]string{"b"}, []string{"a", "c"}},
		} {
			nl, err := FoldNestedLoop(rel, spec.vals, spec.by)
			if err != nil {
				t.Fatal(err)
			}
			h, err := FoldHash(rel, spec.vals, spec.by)
			if err != nil {
				t.Fatal(err)
			}
			if len(nl.Rows) != len(h.Rows) {
				t.Fatalf("trial %d: group counts differ: %d vs %d", trial, len(nl.Rows), len(h.Rows))
			}
			for i := range nl.Rows {
				for j := range nl.Rows[i] {
					if !value.Equal(nl.Rows[i][j], h.Rows[i][j]) {
						t.Fatalf("trial %d row %d col %d: %v vs %v", trial, i, j, nl.Rows[i][j], h.Rows[i][j])
					}
				}
			}
		}
	}
}

func TestFoldUnfoldRoundtrip(t *testing.T) {
	rel := areasRel()
	folded, err := FoldHash(rel, []string{"zip", "addr"}, []string{"area"})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unfold(folded, []string{"zip", "addr"}, []value.Kind{value.Int, value.Str})
	if err != nil {
		t.Fatal(err)
	}
	// Unfold emits group-by-group: same multiset as GroupBy(area).
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

func TestUnfoldErrors(t *testing.T) {
	rel := areasRel()
	if _, err := Unfold(rel, []string{"x"}, []value.Kind{value.Int}); err == nil {
		t.Error("unfold of flat relation should fail")
	}
	folded, _ := FoldHash(rel, []string{"zip"}, []string{"area"})
	if _, err := Unfold(folded, []string{"a", "b"}, []value.Kind{value.Int}); err == nil {
		t.Error("name/type mismatch should fail")
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
	rel := Relation{Schema: s, Rows: rows}
	bounds, err := ComputeGridBounds(rel, []algebra.GridDim{{Field: "x", Cells: 5}, {Field: "y", Cells: 5}})
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
		coords := CellCoords(idx, bounds)
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
	rel := Relation{Schema: s, Rows: []value.Row{
		{value.NewFloat(5)}, {value.NewFloat(5)},
	}}
	bounds, err := ComputeGridBounds(rel, []algebra.GridDim{{Field: "x", Cells: 4}})
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
	if c := (GridBounds{Min: 0, Max: 10, Cells: 4}).CellOf(10); c != 3 {
		t.Errorf("max clamps to %d", c)
	}
	if c := (GridBounds{Min: 0, Max: 10, Cells: 4}).CellOf(-1); c != 0 {
		t.Errorf("below-min clamps to %d", c)
	}
	// Nulls rejected.
	relNull := Relation{Schema: s, Rows: []value.Row{{value.NullValue()}}}
	if _, err := ComputeGridBounds(relNull, []algebra.GridDim{{Field: "x", Cells: 2}}); err == nil {
		t.Error("null in grid dimension should fail")
	}
	// Empty relation is fine.
	relEmpty := Relation{Schema: s}
	b, err := ComputeGridBounds(relEmpty, []algebra.GridDim{{Field: "x", Cells: 2}})
	if err != nil || b[0].Min != 0 || b[0].Max != 0 {
		t.Errorf("empty bounds: %+v %v", b, err)
	}
}

// TestCellOfClampsFarOutOfRange: a value far outside the grid clamps to the
// nearest edge cell. Converting to int before clamping is undefined for a
// float out of int's range (amd64 yields MinInt64, which clamped to cell 0
// from either side); NaN goes to cell 0.
func TestCellOfClampsFarOutOfRange(t *testing.T) {
	b := GridBounds{Min: 0, Max: 10, Cells: 4}
	for _, c := range []struct {
		v    float64
		want int
	}{
		{1e20, 3}, {1e300, 3}, {math.MaxFloat64, 3}, {math.Inf(1), 3},
		{-1e20, 0}, {-1e300, 0}, {-math.MaxFloat64, 0}, {math.Inf(-1), 0},
		{math.NaN(), 0}, {9.99, 3}, {5, 2}, {0, 0},
	} {
		if got := b.CellOf(c.v); got != c.want {
			t.Errorf("CellOf(%g) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestCellIndexRoundtrip(t *testing.T) {
	bounds := []GridBounds{
		{Field: "a", Col: 0, Min: 0, Max: 1, Cells: 7},
		{Field: "b", Col: 1, Min: 0, Max: 1, Cells: 5},
		{Field: "c", Col: 2, Min: 0, Max: 1, Cells: 3},
	}
	for i := 0; i < 7*5*3; i++ {
		coords := CellCoords(uint64(i), bounds)
		// Rebuild the index from coordinates.
		idx := uint64(coords[0])
		idx = idx*5 + uint64(coords[1])
		idx = idx*3 + uint64(coords[2])
		if idx != uint64(i) {
			t.Fatalf("roundtrip %d -> %v -> %d", i, coords, idx)
		}
	}
}

func BenchmarkFoldNestedLoop(b *testing.B) {
	rel := syntheticFoldRel(2000, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FoldNestedLoop(rel, []string{"b"}, []string{"a"})
	}
}

func BenchmarkFoldHash(b *testing.B) {
	rel := syntheticFoldRel(2000, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FoldHash(rel, []string{"b"}, []string{"a"})
	}
}

func syntheticFoldRel(n, keys int) Relation {
	s := value.MustSchema(
		value.Field{Name: "a", Type: value.Int},
		value.Field{Name: "b", Type: value.Int},
	)
	r := rand.New(rand.NewSource(1))
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(r.Intn(keys))), value.NewInt(int64(i))}
	}
	return Relation{Schema: s, Rows: rows}
}
