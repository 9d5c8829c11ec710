package algebra

import (
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
			return value.NewFloat(math.Inf(-1))
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
// (with null patterns) and predicates, the vectorized filter selects exactly
// the rows the boxed row-at-a-time Eval accepts — including NaN ordering,
// cross-numeric comparisons and int values beyond float53 precision.
func TestCompiledPredMatchesEval(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	kinds := []value.Kind{value.Int, value.Float, value.Bool, value.Str, value.Bytes}
	for trial := 0; trial < 300; trial++ {
		nf := 1 + r.Intn(4)
		fields := make([]value.Field, nf)
		for i := range fields {
			fields[i] = value.Field{Name: string(rune('a' + i)), Type: kinds[r.Intn(len(kinds))]}
		}
		schema := value.MustSchema(fields...)
		nrows := r.Intn(60)
		rows := make([]value.Row, nrows)
		for i := range rows {
			row := make(value.Row, nf)
			for c := range row {
				row[c] = randCell(r, fields[c].Type, true)
			}
			rows[i] = row
		}
		batch, err := vec.FromRows(schema, rows)
		if err != nil {
			t.Fatal(err)
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
		// The same rows again with every Str/Bytes column in dictionary
		// form: comparisons there run per entry and select by code.
		for _, form := range []string{"flat", "dictionary"} {
			if form == "dictionary" {
				for c := range batch.Cols {
					dictify(&batch.Cols[c])
				}
			}
			sel := cp.Filter(batch, vec.FillSel(nil, nrows))
			if !slices.Equal(sel, want) {
				t.Fatalf("trial %d (%s form): pred %q over %s:\nvec=%v\nboxed=%v", trial, form, pred, schema, sel, want)
			}
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
