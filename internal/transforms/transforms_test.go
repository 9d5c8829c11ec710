package transforms

import (
	"math"
	"math/rand"
	"testing"

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
