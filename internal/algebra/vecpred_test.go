package algebra

import (
	"math"
	"math/rand"
	"testing"

	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

// TestCompiledPredTermOrder checks cheap terms run first regardless of the
// predicate's textual order.
func TestCompiledPredTermOrder(t *testing.T) {
	schema := value.MustSchema(
		value.Field{Name: "s", Type: value.Str},
		value.Field{Name: "x", Type: value.Int},
	)
	pred := True.
		And("s", OpEq, value.NewString("a")).
		And("x", OpLt, value.NewInt(5))
	cp, err := CompilePred(pred, schema)
	if err != nil {
		t.Fatal(err)
	}
	if cp.terms[0].kind != termIntInt {
		t.Fatalf("numeric term should run first, got kind %d", cp.terms[0].kind)
	}
	// Columns keeps first-use order for the decode phase.
	if got := cp.Columns(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Columns() = %v", got)
	}
}

// TestCompiledPredUnknownField mirrors Predicate.Validate's error.
func TestCompiledPredUnknownField(t *testing.T) {
	schema := value.MustSchema(value.Field{Name: "a", Type: value.Int})
	if _, err := CompilePred(True.And("b", OpEq, value.NewInt(1)), schema); err == nil {
		t.Fatal("CompilePred accepted unknown field")
	}
}

// BenchmarkFilterFloat times FilterRange with one `x < c` term over a
// 4,096-row Float column at 10 % selectivity: null-free (the branch-free
// dense loop) and with nulls (the identity selection, then the three-way
// comparison loop).
func BenchmarkFilterFloat(b *testing.B) {
	const rows = 4096
	schema := value.MustSchema(value.Field{Name: "x", Type: value.Float})
	pred := True.And("x", OpLt, value.NewFloat(0.1))
	cp, err := CompilePred(pred, schema)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for _, nulls := range []bool{false, true} {
		batch := vec.NewBatch(schema)
		col := &batch.Cols[0]
		for i := 0; i < rows; i++ {
			if nulls && i%64 == 0 {
				col.AppendNull()
			} else {
				col.AppendFloat64(r.Float64())
			}
		}
		if err := batch.SetLen(rows); err != nil {
			b.Fatal(err)
		}
		name := "null-free"
		if nulls {
			name = "nulls"
		}
		b.Run(name, func(b *testing.B) {
			sel := make([]int32, 0, rows)
			for b.Loop() {
				sel = cp.FilterRange(batch, rows, sel)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}

// TestFilterDenseAllocations pins FilterRange at zero allocations per call
// for every term kind, null-free and null-bearing, once the buffer has room
// for the block: the dense first term writes into the buffer, later terms
// compact it in place, and a dictionary's verdicts live on the stack.
func TestFilterDenseAllocations(t *testing.T) {
	const rows = 4096
	schema := value.MustSchema(
		value.Field{Name: "i", Type: value.Int},
		value.Field{Name: "f", Type: value.Float},
		value.Field{Name: "b", Type: value.Bool},
		value.Field{Name: "s", Type: value.Str},
		value.Field{Name: "d", Type: value.Str},
		value.Field{Name: "l", Type: value.List},
	)
	r := rand.New(rand.NewSource(3))
	for _, nulls := range []bool{false, true} {
		batch := vec.NewBatch(schema)
		for i := 0; i < rows; i++ {
			row := value.Row{
				value.NewInt(int64(r.Intn(100))),
				value.NewFloat(r.Float64()),
				value.NewBool(r.Intn(2) == 0),
				value.NewString(string(rune('a' + r.Intn(26)))),
				value.NullValue(), // filled in dictionary form below
				value.NewList(value.NewInt(int64(r.Intn(4)))),
			}
			if nulls && i%64 == 0 {
				for c := range row {
					row[c] = value.NullValue()
				}
			}
			if err := batch.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
		// Column d in dictionary form: four entries, one code per row.
		d := &batch.Cols[4]
		d.Data, d.Offs, d.Codes = []byte("wxyz"), []uint64{0, 1, 2, 3, 4}, make([]uint32, rows)
		for i := range d.Codes {
			d.Codes[i] = uint32(r.Intn(4))
		}
		d.SyncLen()
		if err := batch.SetLen(rows); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			kind termKind
			pred Predicate
		}{
			{termIntInt, True.And("i", OpLt, value.NewInt(50)).And("b", OpEq, value.NewBool(true))},
			{termIntFloat, True.And("i", OpGe, value.NewFloat(10.5))},
			{termFloatFloat, True.And("f", OpLt, value.NewFloat(0.5)).And("f", OpNe, value.NewFloat(0.25))},
			{termFloatFloat, True.And("f", OpGt, value.NewFloat(math.NaN()))},
			{termBytes, True.And("s", OpLe, value.NewString("m"))},
			{termBytes, True.And("d", OpNe, value.NewString("x"))},
			{termBoxed, True.And("l", OpGt, value.NewList(value.NewInt(1)))},
		} {
			cp, err := CompilePred(c.pred, schema)
			if err != nil {
				t.Fatal(err)
			}
			if cp.terms[0].kind != c.kind {
				t.Fatalf("%q compiled to term kind %d, want %d", c.pred, cp.terms[0].kind, c.kind)
			}
			buf := make([]int32, 0, rows)
			if n := testing.AllocsPerRun(20, func() { buf = cp.FilterRange(batch, rows, buf) }); n != 0 {
				t.Errorf("nulls=%v: FilterRange(%q) allocated %.1f times per call", nulls, c.pred, n)
			}
		}
	}
}
