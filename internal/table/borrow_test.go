package table

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

// TestBorrowedChunksStayUnwritten holds the chunk cache's vectors immutable
// while scans read them in place (vec.Batch.Borrow). Over a warm cache it
// runs filtered scans at 0.1 %, 10 % and 100 % selectivity, under the
// identity projection and two others, and grouped aggregates; it scribbles
// over every batch NextBatch returns and every row Next returns, then scans
// again from the cache alone and compares each answer with the boxed
// oracle. A view that becomes output uncopied, or one left in a batch that
// goes back to the pool (whose next user appends into what it borrowed),
// writes into the cache and shows as a wrong row.
func TestBorrowedChunksStayUnwritten(t *testing.T) {
	e, _, _ := newEngine(t)
	schema := value.MustSchema(
		value.Field{Name: "t", Type: value.Int},
		value.Field{Name: "x", Type: value.Float},
		value.Field{Name: "s", Type: value.Str},
		value.Field{Name: "k", Type: value.Bytes},
	)
	if err := e.Create("T", schema, "chunk[256](dict[s](delta[t](cols(T))))"); err != nil {
		t.Fatal(err)
	}
	const n = 4096
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{
			value.NewInt(int64(i)),
			value.NewFloat(float64(i%97) / 4),
			value.NewString(fmt.Sprintf("car-%02d", i%12)),
			value.NewBytes([]byte{'k', byte(i % 7), byte(i)}),
		}
	}
	if err := e.Load("T", rows); err != nil {
		t.Fatal(err)
	}
	e.EnableCache(1 << 20)

	var queries []ScanOptions
	for _, pred := range []algebra.Predicate{
		algebra.True.And("t", algebra.OpLt, value.NewInt(n/1000)),                                                // 0.1 %
		algebra.True.And("x", algebra.OpLt, value.NewFloat(2.4)),                                                 // 10 %
		algebra.True.And("t", algebra.OpGe, value.NewInt(0)).And("k", algebra.OpGe, value.NewBytes([]byte{'k'})), // 100 %
	} {
		for _, fields := range [][]string{nil, {"k", "t"}, {"s", "x"}} {
			queries = append(queries, ScanOptions{Pred: pred, Fields: fields})
		}
	}
	for _, spec := range []AggSpec{
		{GroupBy: []string{"s"}, Items: []AggItem{{Func: AggCount}, {Func: AggSum, Expr: mustExpr(t, "x")}, {Func: AggMin, Expr: mustExpr(t, "t")}}},
		{GroupBy: []string{"k"}, Items: []AggItem{{Func: AggMax, Expr: mustExpr(t, "x * 2")}}},
	} {
		queries = append(queries,
			ScanOptions{Aggregate: &spec},
			ScanOptions{Aggregate: &spec, Pred: algebra.True.And("t", algebra.OpLt, value.NewInt(n/10))})
	}
	want := make([][]value.Row, len(queries))
	for qi, q := range queries {
		want[qi] = oracleScan(t, e, "T", q)
	}
	scan := func(qi int, batches bool) []value.Row {
		cur, err := e.Scan("T", queries[qi])
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		var got []value.Row
		for {
			if batches {
				b, ok, err := cur.NextBatch()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					return got
				}
				for i := 0; i < b.Len(); i++ {
					got = append(got, b.Row(i))
				}
				scribbleBatch(b)
				continue
			}
			r, ok, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return got
			}
			got = append(got, deepClone(r))
			scribbleRow(r)
		}
	}
	for qi := range queries { // fill the cache
		requireRows(t, fmt.Sprintf("query %d, cold", qi), scan(qi, true), want[qi])
	}
	warm := e.cache.stats()
	if warm.evictions != 0 {
		t.Fatalf("the cache cannot hold the table: %+v", warm)
	}
	for pass := range 2 {
		for qi := range queries {
			for _, batches := range []bool{true, false} {
				what := fmt.Sprintf("pass %d, query %d, batches %v", pass, qi, batches)
				requireRows(t, what, scan(qi, batches), want[qi])
			}
		}
	}
	if s := e.cache.stats(); s.misses != warm.misses || s.hits == warm.hits {
		t.Errorf("rescans: cache stats %+v after %+v, want hits only", s, warm)
	}
}

// scribbleBatch overwrites every row of every column of b in place,
// keeping each column's shape valid.
func scribbleBatch(b *vec.Batch) {
	for i := range b.Cols {
		v := &b.Cols[i]
		for j := range v.Int64s {
			v.Int64s[j] = -1 << 40
		}
		for j := range v.Float64s {
			v.Float64s[j] = math.NaN()
		}
		for j := range v.Data {
			v.Data[j] ^= 0xa5
		}
		clear(v.Codes)
		for j := range v.Boxed {
			v.Boxed[j] = value.NewInt(-1)
		}
	}
}

// deepClone copies r and the bytes its values hold.
func deepClone(r value.Row) value.Row {
	out := r.Clone()
	for i, v := range out {
		if v.Kind() == value.Bytes {
			out[i] = value.NewBytes(bytes.Clone(v.Bytes()))
		}
	}
	return out
}

// scribbleRow overwrites the bytes a row's values hold, then the values.
func scribbleRow(r value.Row) {
	for i, v := range r {
		if v.Kind() == value.Bytes {
			for j := range v.Bytes() {
				v.Bytes()[j] ^= 0xa5
			}
		}
		r[i] = value.NewInt(-1)
	}
}
