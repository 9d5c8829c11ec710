package algebra

import (
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

// BenchmarkFilterFloat times one `x < c` term over a 4,096-row Float column
// at 10 % selectivity: null-free (the per-operator loop) and with nulls (the
// three-way comparison loop).
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
				sel = cp.Filter(batch, vec.FillSel(sel, rows))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
