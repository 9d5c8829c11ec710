package table

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/value"
)

// aggSchema covers every aggregate input kind plus group keys: small-domain
// ints and strings, floats with NaN/Inf/-0, huge ints for overflow, nulls
// in every nullable column.
func aggSchema() *value.Schema {
	return value.MustSchema(
		value.Field{Name: "t", Type: value.Int},
		value.Field{Name: "a", Type: value.Int},
		value.Field{Name: "x", Type: value.Float},
		value.Field{Name: "y", Type: value.Float},
		value.Field{Name: "s", Type: value.Str},
		value.Field{Name: "b", Type: value.Bool},
		value.Field{Name: "big", Type: value.Int},
		value.Field{Name: "k", Type: value.Bytes},
	)
}

func aggRows(r *rand.Rand, n int) []value.Row {
	rows := make([]value.Row, n)
	for i := range rows {
		// Stored columns cannot hold nulls (compression isolates them);
		// null aggregation inputs come from expressions (x/0) and empty
		// groups instead.
		a := value.NewInt(int64(r.Intn(5))) // includes 0: division-by-zero food
		x := value.NewFloat(r.Float64()*200 - 100)
		switch r.Intn(40) {
		case 0:
			x = value.NewFloat(math.NaN())
		case 1:
			x = value.NewFloat(math.Copysign(0, -1)) // -0.0
		}
		y := value.NewFloat(r.Float64() * 10)
		big := value.NewInt(math.MaxInt64 - int64(r.Intn(3))) // sum overflows fast
		rows[i] = value.Row{
			value.NewInt(int64(i)),
			a,
			x,
			y,
			value.NewString(fmt.Sprintf("g%d", r.Intn(4))),
			value.NewBool(r.Intn(2) == 0),
			big,
			value.NewBytes([]byte{'k', byte(r.Intn(6))}),
		}
	}
	return rows
}

// aggSpecs exercises every kernel (count/sum/min/max/avg × int/float ×
// grouped/ungrouped), expressions (widening, constants, division by zero,
// overflow) and group keys of every kind including floats with NaN and -0.
func aggSpecs() []AggSpec {
	mk := func(group []string, aggs ...string) AggSpec {
		var spec AggSpec
		spec.GroupBy = group
		for _, s := range aggs {
			item, err := ParseAggItem(s)
			if err != nil {
				panic(err)
			}
			spec.Items = append(spec.Items, item)
		}
		return spec
	}
	return []AggSpec{
		mk(nil, "count"),
		mk(nil, "count(a)", "sum(a)", "min(a)", "max(a)", "avg(a)"),
		mk(nil, "count(x)", "sum(x)", "min(x)", "max(x)", "avg(x)"),
		mk(nil, "sum(big)", "max(big)"), // int64 sum wraps
		mk(nil, "sum(t*a + 2)", "min(x*2.5 - y)", "avg(t / a)", "max(-t)"),
		mk([]string{"s"}, "count", "sum(a)", "avg(x)", "min(t)"),
		mk([]string{"a"}, "count", "min(t)", "max(t)"), // null group key
		mk([]string{"s", "b"}, "count", "sum(t)"),
		mk([]string{"x"}, "count", "max(y)"), // float keys: NaN, -0, nulls
		mk([]string{"k"}, "count", "sum(x)"),
		mk([]string{"s", "a"}, "count", "avg(y)"), // dict column with an Int column
		mk([]string{"k", "s"}, "count", "max(t)"), // two dict columns
	}
}

// aggOracle computes the spec row-at-a-time over the scanned rows in stored
// order — independent accumulation the engine variants are pinned to, bit
// for bit.
func aggOracle(t *testing.T, spec AggSpec, schema *value.Schema, rows []value.Row) []value.Row {
	t.Helper()
	type group struct {
		key  value.Row
		accs []aggAcc
	}
	var exec []aggItemExec
	for _, it := range spec.Items {
		ie := aggItemExec{fn: it.Func, expr: it.Expr, kind: value.Int}
		if it.Expr != nil {
			k, err := algebra.ExprType(it.Expr, schema)
			if err != nil {
				t.Fatal(err)
			}
			ie.kind = k
		}
		exec = append(exec, ie)
	}
	keyIdx := make([]int, len(spec.GroupBy))
	for i, f := range spec.GroupBy {
		keyIdx[i] = schema.Index(f)
	}
	groups := make(map[string]*group)
	var order []string
	keyOf := func(row value.Row) (string, value.Row) {
		var sb strings.Builder
		key := make(value.Row, len(keyIdx))
		for i, ki := range keyIdx {
			v := row[ki]
			key[i] = v
			// Canonicalize float keys so -0 == +0 and NaN == NaN, matching
			// value.Equal.
			if v.Kind() == value.Float {
				f := v.Float()
				switch {
				case f == 0:
					sb.WriteString("f:0")
				case math.IsNaN(f):
					sb.WriteString("f:NaN")
				default:
					fmt.Fprintf(&sb, "f:%x", math.Float64bits(f))
				}
			} else {
				sb.WriteString(v.Kind().String())
				sb.WriteByte(':')
				sb.WriteString(v.String())
			}
			sb.WriteByte('|')
		}
		return sb.String(), key
	}
	for _, row := range rows {
		k, key := keyOf(row)
		g := groups[k]
		if g == nil {
			g = &group{key: key, accs: make([]aggAcc, len(exec))}
			for i := range g.accs {
				g.accs[i].grow(&exec[i], 1)
			}
			groups[k] = g
			order = append(order, k)
		}
		for ii := range exec {
			it := &exec[ii]
			acc := &g.accs[ii]
			if it.expr == nil {
				acc.count[0]++
				continue
			}
			v, err := algebra.EvalScalar(it.expr, schema, row)
			if err != nil {
				t.Fatal(err)
			}
			if v.IsNull() {
				continue
			}
			switch it.fn {
			case AggCount:
				acc.count[0]++
			case AggSum, AggAvg:
				if it.kind == value.Float {
					acc.sumF[0] += v.Float()
				} else {
					acc.sumI[0] += v.Int()
				}
				acc.count[0]++
			case AggMin, AggMax:
				if it.kind == value.Float {
					acc.foldMinMaxF(0, v.Float(), v.Float(), 1)
				} else {
					acc.foldMinMaxI(0, v.Int(), v.Int(), 1)
				}
			}
		}
	}
	if len(keyIdx) == 0 && len(order) == 0 {
		g := &group{accs: make([]aggAcc, len(exec))}
		for i := range g.accs {
			g.accs[i].grow(&exec[i], 1)
		}
		groups[""] = g
		order = append(order, "")
	}
	var out []value.Row
	for _, k := range order {
		g := groups[k]
		row := make(value.Row, len(keyIdx)+len(exec))
		copy(row, g.key)
		for ii := range exec {
			row[len(keyIdx)+ii] = exec[ii].finalize(&g.accs[ii], 0)
		}
		out = append(out, row)
	}
	if len(keyIdx) > 0 {
		keys := make([]int, len(keyIdx))
		for i := range keys {
			keys[i] = i
		}
		value.SortRows(out, keys, nil)
	}
	return out
}

// TestAggregateDifferential pins every aggregate kernel and typed
// expression to two oracles with quarantine off/on × zone-prune on/off, bit
// for bit, floats included: the boxed block executor of oracle_test.go and
// the independent row-order aggOracle.
func TestAggregateDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	rows := aggRows(r, 3000)
	preds := []algebra.Predicate{
		algebra.True, // 100% selectivity
		algebra.True.And("t", algebra.OpLt, value.NewInt(1500)),
		algebra.True.And("t", algebra.OpLt, value.NewInt(-1)), // empty selection
		algebra.True.And("x", algebra.OpGe, value.NewFloat(0)),
		// String predicates: per entry and by code on the dict layouts.
		algebra.True.And("s", algebra.OpGe, value.NewString("g2")).And("k", algebra.OpLt, value.NewBytes([]byte{'k', 4})),
		algebra.True.And("s", algebra.OpEq, value.NewString("g1x")), // in no dictionary
	}
	layouts := []string{
		"chunk[64](rows(T))",
		"chunk[64](dict[s](rle[a](delta[t](cols(T)))))",
		"chunk[64](dict[s,k](cols(T)))",
		"chunk[64](orderby[s](rows(T)))",
		"chunk[64](zorder(grid[t,big; 8,8](rows(T))))", // grid dims must be non-null
	}
	for _, layoutExpr := range layouts {
		t.Run(layoutExpr, func(t *testing.T) {
			e, _, _ := newEngine(t)
			if err := e.Create("T", aggSchema(), layoutExpr); err != nil {
				t.Fatal(err)
			}
			if err := e.Load("T", rows[:2500]); err != nil {
				t.Fatal(err)
			}
			if err := e.Insert("T", rows[2500:]); err != nil {
				t.Fatal(err)
			}
			for pi, pred := range preds {
				// The oracle input: matching rows in stored order.
				plain, err := e.Scan("T", ScanOptions{Pred: pred})
				if err != nil {
					t.Fatal(err)
				}
				input := drain(t, plain)
				plain.Close()
				for si, spec := range aggSpecs() {
					spec := spec
					want := aggOracle(t, spec, aggSchema(), input)
					for _, noZone := range []bool{false, true} {
						base := ScanOptions{Pred: pred, Aggregate: &spec, NoZonePrune: noZone}
						exact := oracleScan(t, e, "T", base)
						for _, v := range scanVariants(base) {
							cur, err := e.Scan("T", v.opts)
							if err != nil {
								t.Fatal(err)
							}
							got := drain(t, cur)
							cur.Close()
							what := fmt.Sprintf("pred %d spec %d %s noZone=%v", pi, si, v.name, noZone)
							requireRows(t, what, got, exact)
							requireRows(t, what+" row-order", got, want)
						}
					}
				}
			}
		})
	}
}

// TestAggregateEmptyTable: ungrouped aggregation over zero rows yields one
// row (count 0, null aggregates); grouped yields zero rows.
func TestAggregateEmptyTable(t *testing.T) {
	e, _, _ := newEngine(t)
	if err := e.Create("T", aggSchema(), "chunk[64](rows(T))"); err != nil {
		t.Fatal(err)
	}
	spec := AggSpec{Items: []AggItem{
		{Func: AggCount},
		{Func: AggSum, Expr: mustExpr(t, "a")},
		{Func: AggMin, Expr: mustExpr(t, "x")},
	}}
	cur, err := e.Scan("T", ScanOptions{Aggregate: &spec})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, cur)
	cur.Close()
	if len(got) != 1 {
		t.Fatalf("ungrouped empty aggregate: %d rows, want 1", len(got))
	}
	if got[0][0].Int() != 0 || !got[0][1].IsNull() || !got[0][2].IsNull() {
		t.Fatalf("ungrouped empty aggregate row: %v", got[0])
	}

	gspec := AggSpec{GroupBy: []string{"s"}, Items: []AggItem{{Func: AggCount}}}
	cur, err = e.Scan("T", ScanOptions{Aggregate: &gspec})
	if err != nil {
		t.Fatal(err)
	}
	got = drain(t, cur)
	cur.Close()
	if len(got) != 0 {
		t.Fatalf("grouped empty aggregate: %d rows, want 0", len(got))
	}
}

func mustExpr(t *testing.T, s string) algebra.ScalarExpr {
	t.Helper()
	e, err := algebra.ParseScalarExpr(s)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestAggregateValidation: Aggregate is mutually exclusive with Fields and
// Order, rejects unknown columns and non-numeric expression inputs.
func TestAggregateValidation(t *testing.T) {
	e, _, _ := newEngine(t)
	if err := e.Create("T", aggSchema(), "chunk[64](rows(T))"); err != nil {
		t.Fatal(err)
	}
	spec := AggSpec{Items: []AggItem{{Func: AggCount}}}
	cases := []ScanOptions{
		{Aggregate: &spec, Fields: []string{"t"}},
		{Aggregate: &spec, Order: []algebra.OrderKey{{Field: "t"}}},
		{Aggregate: &AggSpec{}},
		{Aggregate: &AggSpec{GroupBy: []string{"nope"}, Items: spec.Items}},
		{Aggregate: &AggSpec{Items: []AggItem{{Func: AggSum, Expr: mustExpr(t, "s + 1")}}}},
		{Aggregate: &AggSpec{Items: []AggItem{{Func: AggSum, Expr: mustExpr(t, "nope")}}}},
		{Aggregate: &AggSpec{Items: []AggItem{{Func: AggSum}}}},
		{Aggregate: &AggSpec{Items: []AggItem{{Func: AggSum, Expr: mustExpr(t, "a")}, {Func: AggSum, Expr: mustExpr(t, "a")}}}},
	}
	for i, opts := range cases {
		if _, err := e.Scan("T", opts); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

// TestAggregateCountReadsNoPages: a bare count(*) with no predicate answers
// from block metadata without reading a single data page.
func TestAggregateCountReadsNoPages(t *testing.T) {
	e, f, _ := newEngine(t)
	if err := e.Create("T", aggSchema(), "chunk[64](rows(T))"); err != nil {
		t.Fatal(err)
	}
	rows := aggRows(rand.New(rand.NewSource(3)), 2000)
	if err := e.Load("T", rows); err != nil {
		t.Fatal(err)
	}
	f.ResetStats()
	spec := AggSpec{Items: []AggItem{{Func: AggCount}}}
	cur, err := e.Scan("T", ScanOptions{Aggregate: &spec})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, cur)
	cur.Close()
	if len(got) != 1 || got[0][0].Int() != int64(len(rows)) {
		t.Fatalf("count(*) = %v, want %d", got, len(rows))
	}
	if reads := f.Stats().PageReads; reads != 0 {
		t.Fatalf("bare count(*) read %d pages, want 0", reads)
	}
}
