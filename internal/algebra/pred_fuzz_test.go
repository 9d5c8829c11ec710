package algebra_test

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/oracle"
	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

// FuzzCompiledPred holds the compiled filter to oracle.Eval over one
// numeric column built from data, eight bytes a row read as an int64 or as
// a float64's bits (so NaN payloads, −0, ±Inf, MinInt64 and MaxInt64 all
// arise), against operator op%6 and constant c of either kind: FilterRange
// over every row, Filter over the rows whose bit i%64 of keep is set, and
// the oracle must agree. Bit i%64 of nulls makes row i null. The seed
// corpus is under testdata/fuzz/FuzzCompiledPred.
func FuzzCompiledPred(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, floatCol bool, op uint8, c uint64, floatConst bool, nulls, keep uint64) {
		kind := value.Int
		if floatCol {
			kind = value.Float
		}
		schema := value.MustSchema(value.Field{Name: "x", Type: kind})
		rows := make([]value.Row, 0, len(data)/8)
		for i := 0; i+8 <= len(data) && len(rows) < 1024; i += 8 {
			x := binary.LittleEndian.Uint64(data[i:])
			switch {
			case nulls>>(len(rows)%64)&1 != 0:
				rows = append(rows, value.Row{value.NullValue()})
			case floatCol:
				rows = append(rows, value.Row{value.NewFloat(math.Float64frombits(x))})
			default:
				rows = append(rows, value.Row{value.NewInt(int64(x))})
			}
		}
		cv := value.NewInt(int64(c))
		if floatConst {
			cv = value.NewFloat(math.Float64frombits(c))
		}
		pred := algebra.True.And("x", vecPredOps[int(op)%len(vecPredOps)], cv)
		batch, err := vec.FromRows(schema, rows)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := algebra.CompilePred(pred, schema)
		if err != nil {
			t.Fatal(err)
		}
		var sub, want, wantSub []int32
		for i, row := range rows {
			in := keep>>(i%64)&1 != 0
			if in {
				sub = append(sub, int32(i))
			}
			if oracle.Eval(pred, schema, row) {
				want = append(want, int32(i))
				if in {
					wantSub = append(wantSub, int32(i))
				}
			}
		}
		if got := cp.FilterRange(batch, len(rows), nil); !slices.Equal(got, want) {
			t.Fatalf("%q over %v, dense: vec=%v boxed=%v", pred, rows, got, want)
		}
		if got := cp.Filter(batch, sub); !slices.Equal(got, wantSub) {
			t.Fatalf("%q over %v, selection: vec=%v boxed=%v", pred, rows, got, wantSub)
		}
	})
}
