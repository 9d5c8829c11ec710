package algebra_test

// The compiled predicate and expression evaluators held to the boxed
// row-at-a-time reference evaluators of internal/oracle (which imports
// algebra, hence the external test package).

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/oracle"
	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

func TestPredicateEval(t *testing.T) {
	s := value.MustSchema(
		value.Field{Name: "lat", Type: value.Float},
		value.Field{Name: "id", Type: value.Str},
	)
	row := value.Row{value.NewFloat(42.35), value.NewString("car-1")}
	cases := []struct {
		pred string
		want bool
	}{
		{"lat > 42", true},
		{"lat > 43", false},
		{"lat >= 42.35", true},
		{"lat < 42.35", false},
		{"lat <= 42.35", true},
		{`id = "car-1"`, true},
		{`id != "car-1"`, false},
		{`lat > 42 and id = "car-1"`, true},
		{`lat > 42 and id = "car-2"`, false},
		{"", true},
	}
	for _, c := range cases {
		p, err := algebra.ParsePredicate(c.pred)
		if err != nil {
			t.Fatalf("%q: %v", c.pred, err)
		}
		if got := oracle.Eval(p, s, row); got != c.want {
			t.Errorf("Eval(%q) = %v, want %v", c.pred, got, c.want)
		}
	}
	// Null field never matches.
	nullRow := value.Row{value.NullValue(), value.NewString("x")}
	p, _ := algebra.ParsePredicate("lat > 0")
	if oracle.Eval(p, s, nullRow) {
		t.Error("null field should not satisfy a comparison")
	}
	// Unknown field never matches.
	p2, _ := algebra.ParsePredicate("bogus = 1")
	if oracle.Eval(p2, s, row) {
		t.Error("unknown field should not satisfy a comparison")
	}
}

func TestEvalScalarSemantics(t *testing.T) {
	s := algebra.ExprSchema()
	row := value.Row{
		value.NewInt(7),
		value.NewInt(0),
		value.NewFloat(1.5),
		value.NewFloat(0),
		value.NewString("z"),
	}
	cases := []struct {
		in   string
		want value.Value
	}{
		{"a + 1", value.NewInt(8)},
		{"a / b", value.NullValue()},           // int division by zero -> null
		{"a / 2", value.NewInt(3)},             // truncating
		{"x / y", value.NewFloat(math.Inf(1))}, // IEEE float division
		{"a * x", value.NewFloat(10.5)},
	}
	for _, c := range cases {
		e, err := algebra.ParseScalarExpr(c.in)
		if err != nil {
			t.Fatalf("parse %q: %v", c.in, err)
		}
		got, err := oracle.EvalScalar(e, s, row)
		if err != nil {
			t.Fatalf("eval %q: %v", c.in, err)
		}
		if !value.Equal(got, c.want) {
			t.Errorf("%q = %v, want %v", c.in, got, c.want)
		}
	}
	// Overflow wraps (two's complement), and MinInt64 / -1 is defined to
	// wrap instead of panicking.
	for _, c := range []struct {
		e    algebra.ScalarExpr
		want int64
	}{
		{&algebra.BinExpr{Op: '/', L: &algebra.ConstExpr{Val: value.NewInt(math.MinInt64)}, R: &algebra.ConstExpr{Val: value.NewInt(-1)}}, math.MinInt64},
		{&algebra.BinExpr{Op: '+', L: &algebra.ConstExpr{Val: value.NewInt(math.MaxInt64)}, R: &algebra.ConstExpr{Val: value.NewInt(1)}}, math.MinInt64},
	} {
		got, err := oracle.EvalScalar(c.e, s, row)
		if err != nil {
			t.Fatal(err)
		}
		if got.Int() != c.want {
			t.Errorf("%s = %v, want %d", c.e, got, c.want)
		}
	}
	// Null input poisons the expression.
	nrow := value.Row{value.NullValue(), value.NewInt(1), value.NewFloat(1), value.NewFloat(1), value.NewString("z")}
	e, _ := algebra.ParseScalarExpr("a + b")
	got, err := oracle.EvalScalar(e, s, nrow)
	if err != nil || !got.IsNull() {
		t.Errorf("null input: got %v, %v; want null", got, err)
	}
}

// randExpr builds a random expression over int columns a,b and float
// columns x,y with constants, exercising every operator and the widening
// insert.
func randExpr(r *rand.Rand, depth int) algebra.ScalarExpr {
	if depth == 0 || r.Intn(3) == 0 {
		switch r.Intn(4) {
		case 0:
			return &algebra.ColExpr{Name: []string{"a", "b", "x", "y"}[r.Intn(4)]}
		case 1:
			return &algebra.ConstExpr{Val: value.NewInt(int64(r.Intn(7) - 3))}
		case 2:
			return &algebra.ConstExpr{Val: value.NewFloat(r.Float64()*4 - 2)}
		default:
			return &algebra.ColExpr{Name: []string{"a", "b"}[r.Intn(2)]}
		}
	}
	return &algebra.BinExpr{
		Op: []byte{'+', '-', '*', '/'}[r.Intn(4)],
		L:  randExpr(r, depth-1),
		R:  randExpr(r, depth-1),
	}
}

// TestCompiledExprMatchesScalar pins EvalVec to the boxed EvalScalar oracle
// over random expressions and data with nulls, NaN, ±Inf, huge ints, zero
// divisors — under nil, partial, and empty selections.
func TestCompiledExprMatchesScalar(t *testing.T) {
	s := value.MustSchema(
		value.Field{Name: "a", Type: value.Int},
		value.Field{Name: "b", Type: value.Int},
		value.Field{Name: "x", Type: value.Float},
		value.Field{Name: "y", Type: value.Float},
	)
	r := rand.New(rand.NewSource(9))
	const n = 257 // odd size crosses bitmap word boundaries
	b := vec.NewBatch(s)
	rows := make([]value.Row, n)
	for i := 0; i < n; i++ {
		var row value.Row
		ints := []int64{0, 1, -1, 3, math.MaxInt64, math.MinInt64}
		for c := 0; c < 2; c++ {
			if r.Intn(12) == 0 {
				row = append(row, value.NullValue())
			} else {
				row = append(row, value.NewInt(ints[r.Intn(len(ints))]))
			}
		}
		floats := []float64{0, math.Copysign(0, -1), 1.25, -3.5, math.NaN(), math.Inf(1), math.Inf(-1), r.NormFloat64()}
		for c := 0; c < 2; c++ {
			if r.Intn(12) == 0 {
				row = append(row, value.NullValue())
			} else {
				row = append(row, value.NewFloat(floats[r.Intn(len(floats))]))
			}
		}
		rows[i] = row
		for c := range row {
			if err := b.Cols[c].AppendValue(row[c]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.SetLen(n); err != nil {
		t.Fatal(err)
	}
	sels := [][]int32{
		nil,
		{},           // empty selection
		{0, 64, 255}, // sparse
	}
	var half []int32
	for i := int32(0); i < n; i += 2 {
		half = append(half, i)
	}
	sels = append(sels, half)

	var scratch algebra.ExprScratch
	var dst vec.Vector
	for trial := 0; trial < 300; trial++ {
		e := randExpr(r, 3)
		ce, err := algebra.CompileExpr(e, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, sel := range sels {
			if err := ce.EvalVec(b, n, sel, &dst, &scratch); err != nil {
				t.Fatalf("%s: %v", e, err)
			}
			count := n
			if sel != nil {
				count = len(sel)
			}
			if dst.Len() != count {
				t.Fatalf("%s: result len %d, want %d", e, dst.Len(), count)
			}
			for k := 0; k < count; k++ {
				ri := k
				if sel != nil {
					ri = int(sel[k])
				}
				want, err := oracle.EvalScalar(e, s, rows[ri])
				if err != nil {
					t.Fatal(err)
				}
				got := dst.Value(k)
				if !value.Equal(got, want) {
					t.Fatalf("%s row %d: vec %v, scalar %v", e, ri, got, want)
				}
			}
		}
	}
}

var vecPredOps = []algebra.CmpOp{algebra.OpEq, algebra.OpNe, algebra.OpLt, algebra.OpLe, algebra.OpGt, algebra.OpGe}

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
	// The sub-selections come from a source of their own, so the trials
	// drawn from r are the same whatever checkCompiled draws.
	subs := rand.New(rand.NewSource(98))
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

		pred := algebra.True
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
		checkCompiled(t, subs, fmt.Sprintf("trial %d", trial), schema, rows, pred)
	}

	negZero := math.Copysign(0, -1)
	specials := []float64{math.NaN(), math.Inf(-1), -1.5, negZero, 0, 2, math.Inf(1)}
	for _, col := range []struct {
		kind  value.Kind
		term  int
		cells []value.Value
	}{
		{value.Float, algebra.TermFloatFloat, nil},
		{value.Int, algebra.TermIntFloat, []value.Value{value.NewInt(math.MinInt64), value.NewInt(-2), value.NewInt(0), value.NewInt(2), value.NewInt(math.MaxInt64)}},
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
				pred := algebra.True.And("x", op, value.NewFloat(c))
				if cp, err := algebra.CompilePred(pred, schema); err != nil || cp.TermKind(0) != col.term {
					t.Fatalf("%q over %s: compiled to %+v (%v), want term kind %d", pred, col.kind, cp, err, col.term)
				}
				checkCompiled(t, subs, "specials", schema, rows, pred)
			}
		}
	}
}

// checkCompiled fails the test unless pred compiled for schema selects the
// rows Eval accepts, with the batch's Str/Bytes columns flat and then in
// dictionary form (comparisons there run per entry and select by code).
// Each form runs two ways: FilterRange over every row, and Filter over a
// random order-preserving sub-selection drawn from r.
func checkCompiled(t *testing.T, r *rand.Rand, name string, schema *value.Schema, rows []value.Row, pred algebra.Predicate) {
	t.Helper()
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
		in := r.Intn(2) == 0
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
	for _, form := range []string{"flat", "dictionary"} {
		if form == "dictionary" {
			for c := range batch.Cols {
				dictify(&batch.Cols[c])
			}
		}
		if got := cp.FilterRange(batch, len(rows), nil); !slices.Equal(got, want) {
			t.Fatalf("%s (%s form, dense): pred %q over %s:\nvec=%v\nboxed=%v", name, form, pred, schema, got, want)
		}
		if got := cp.Filter(batch, slices.Clone(sub)); !slices.Equal(got, wantSub) {
			t.Fatalf("%s (%s form, selection %v): pred %q over %s:\nvec=%v\nboxed=%v", name, form, sub, pred, schema, got, wantSub)
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
