package algebra

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

var vecPredOps = []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}

// randCell returns a random value of kind k, sometimes null.
func randCell(r *rand.Rand, k value.Kind, nullable bool) value.Value {
	if nullable && r.Intn(8) == 0 {
		return value.NullValue()
	}
	switch k {
	case value.Int:
		if r.Intn(10) == 0 {
			return value.NewInt(math.MaxInt64 - int64(r.Intn(3))) // beyond float precision
		}
		return value.NewInt(int64(r.Intn(20) - 10))
	case value.Float:
		switch r.Intn(10) {
		case 0:
			return value.NewFloat(math.NaN())
		case 1:
			return value.NewFloat([]float64{math.Inf(-1), math.Inf(1), math.Copysign(0, -1)}[r.Intn(3)])
		default:
			return value.NewFloat(float64(r.Intn(20)-10) / 2)
		}
	case value.Bool:
		return value.NewBool(r.Intn(2) == 0)
	case value.Str:
		return value.NewString([]string{"", "a", "ab", "b", "zz"}[r.Intn(5)])
	case value.Bytes:
		return value.NewBytes([]byte{byte(r.Intn(4))})
	default:
		return value.NewList(value.NewInt(int64(r.Intn(3))))
	}
}

// TestCompiledPredMatchesEval is the property test: on random schemas, rows
// (with null patterns, or none) and predicates, the vectorized filter selects
// exactly the rows the boxed row-at-a-time Eval accepts — including NaN
// ordering, signed zeros, cross-numeric comparisons and int values beyond
// float53 precision. An exhaustive pass then puts every operator of the
// float loops against columns and constants of every special float.
func TestCompiledPredMatchesEval(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	kinds := []value.Kind{value.Int, value.Float, value.Bool, value.Str, value.Bytes}
	for trial := 0; trial < 600; trial++ {
		nf := 1 + r.Intn(4)
		fields := make([]value.Field, nf)
		for i := range fields {
			fields[i] = value.Field{Name: string(rune('a' + i)), Type: kinds[r.Intn(len(kinds))]}
		}
		schema := value.MustSchema(fields...)
		// Half the trials hold no null, so the null-free loops run too.
		nullable := trial%2 == 0
		rows := make([]value.Row, r.Intn(60))
		for i := range rows {
			row := make(value.Row, nf)
			for c := range row {
				row[c] = randCell(r, fields[c].Type, nullable)
			}
			rows[i] = row
		}

		pred := True
		for n := r.Intn(4); n > 0; n-- {
			f := fields[r.Intn(nf)]
			// A constant of the field's own kind, or a cross-numeric one.
			ck := f.Type
			if (ck == value.Int || ck == value.Float) && r.Intn(3) == 0 {
				if ck == value.Int {
					ck = value.Float
				} else {
					ck = value.Int
				}
			}
			pred = pred.And(f.Name, vecPredOps[r.Intn(len(vecPredOps))], randCell(r, ck, false))
		}
		checkCompiled(t, fmt.Sprintf("trial %d", trial), schema, rows, pred)
	}

	negZero := math.Copysign(0, -1)
	specials := []float64{math.NaN(), math.Inf(-1), -1.5, negZero, 0, 2, math.Inf(1)}
	for _, col := range []struct {
		kind  value.Kind
		term  termKind
		cells []value.Value
	}{
		{value.Float, termFloatFloat, nil},
		{value.Int, termIntFloat, []value.Value{value.NewInt(math.MinInt64), value.NewInt(-2), value.NewInt(0), value.NewInt(2), value.NewInt(math.MaxInt64)}},
	} {
		if col.cells == nil {
			for _, x := range specials {
				col.cells = append(col.cells, value.NewFloat(x))
			}
		}
		schema := value.MustSchema(value.Field{Name: "x", Type: col.kind})
		rows := make([]value.Row, len(col.cells))
		for i, x := range col.cells {
			rows[i] = value.Row{x}
		}
		for _, c := range specials {
			for _, op := range vecPredOps {
				pred := True.And("x", op, value.NewFloat(c))
				if cp, err := CompilePred(pred, schema); err != nil || cp.terms[0].kind != col.term {
					t.Fatalf("%q over %s: compiled to %+v (%v), want term kind %d", pred, col.kind, cp, err, col.term)
				}
				checkCompiled(t, "specials", schema, rows, pred)
			}
		}
	}
}

// checkCompiled fails the test unless pred compiled for schema selects the
// rows Eval accepts, with the batch's Str/Bytes columns flat and then in
// dictionary form (comparisons there run per entry and select by code).
func checkCompiled(t *testing.T, name string, schema *value.Schema, rows []value.Row, pred Predicate) {
	t.Helper()
	batch, err := vec.FromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := CompilePred(pred, schema)
	if err != nil {
		t.Fatal(err)
	}
	var want []int32
	for i, row := range rows {
		if pred.Eval(schema, row) {
			want = append(want, int32(i))
		}
	}
	for _, form := range []string{"flat", "dictionary"} {
		if form == "dictionary" {
			for c := range batch.Cols {
				dictify(&batch.Cols[c])
			}
		}
		sel := cp.Filter(batch, vec.FillSel(nil, len(rows)))
		if !slices.Equal(sel, want) {
			t.Fatalf("%s (%s form): pred %q over %s:\nvec=%v\nboxed=%v", name, form, pred, schema, sel, want)
		}
	}
}

// dictify rewrites a flat Str/Bytes column into dictionary form over its
// distinct values (null rows take the code of their zero-length bytes).
func dictify(v *vec.Vector) {
	if k := v.Kind(); k != value.Str && k != value.Bytes || v.Len() == 0 {
		return
	}
	var data []byte
	offs := []uint64{0}
	codes := make([]uint32, v.Len())
	index := map[string]uint32{}
	for i := range codes {
		s := string(v.BytesAt(i))
		c, ok := index[s]
		if !ok {
			c = uint32(len(index))
			index[s] = c
			data = append(data, s...)
			offs = append(offs, uint64(len(data)))
		}
		codes[i] = c
	}
	v.Data, v.Offs, v.Codes = data, offs, codes
	v.SyncLen()
}

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
