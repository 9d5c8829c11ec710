package table

import (
	"runtime"
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/buffer"
	"rodentstore/internal/value"
)

// gridEngine loads n trace rows into a gridded, chunked Traces table, so a
// scan crosses many blocks and grid cells.
func gridEngine(t *testing.T, n int) *Engine {
	t.Helper()
	e, _, _ := newEngine(t)
	if err := e.Create("Traces", tracesSchema(), "chunk[64](zorder(grid[lat,lon; 8,8](Traces)))"); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("Traces", traceRows(n)); err != nil {
		t.Fatal(err)
	}
	return e
}

// pooledGridEngine is gridEngine reading through a buffer pool of the given
// number of frames.
func pooledGridEngine(t *testing.T, n, frames int) (*Engine, *buffer.Pool) {
	t.Helper()
	e := gridEngine(t, n)
	pool, err := buffer.NewPool(e.file, frames)
	if err != nil {
		t.Fatal(err)
	}
	e.Source = pool
	return e, pool
}

func sameRows(t *testing.T, got, want []value.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d: %d fields, want %d", i, len(got[i]), len(want[i]))
		}
		for c := range want[i] {
			if !value.Equal(got[i][c], want[i][c]) {
				t.Fatalf("row %d col %d: %v, want %v", i, c, got[i][c], want[i][c])
			}
		}
	}
}

// TestScanStartsNoGoroutine checks that a scan runs its blocks on the
// caller's goroutine: opening cursors and reading from them starts
// nothing, so a cursor dropped without Close leaves nothing running.
func TestScanStartsNoGoroutine(t *testing.T) {
	e := gridEngine(t, 4000)
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		cur, err := e.Scan("Traces", ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := cur.Next(); err != nil || !ok {
			t.Fatalf("ok=%v err=%v", ok, err)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("cursor %d: %d goroutines, %d before the scans", i, n, before)
		}
		// Dropped: no Close.
	}
}

// TestAbandonedCursorHoldsNoPins drops partly read cursors without Close:
// between calls a cursor holds no buffer-pool pin, so nothing is left for
// a finalizer to release.
func TestAbandonedCursorHoldsNoPins(t *testing.T) {
	e, pool := pooledGridEngine(t, 4000, 256)
	for i := 0; i < 5; i++ {
		cur, err := e.Scan("Traces", ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j <= 100*i; j++ {
			if _, ok, err := cur.Next(); err != nil || !ok {
				t.Fatalf("cursor %d row %d: ok=%v err=%v", i, j, ok, err)
			}
		}
		if n := pool.Pinned(); n != 0 {
			t.Fatalf("cursor %d: %d pins held between Next calls", i, n)
		}
	}
	if s := pool.Stats(); s.Misses == 0 {
		t.Fatalf("scans read nothing through the pool: %+v", s)
	}
}

// TestCursorCloseEarly closes each kind of cursor — streaming, materialized
// order-by and aggregation — after a few rows: it then reports the end on
// Next and NextBatch, a second Close is harmless, and no pin is left. An
// aggregation, drained when Scan returns, already holds no group table.
func TestCursorCloseEarly(t *testing.T) {
	e, pool := pooledGridEngine(t, 4000, 256)
	spec := AggSpec{GroupBy: []string{"id"}, Items: []AggItem{{Func: AggCount}}}
	for _, tc := range []struct {
		name string
		opts ScanOptions
	}{
		{"stream", ScanOptions{}},
		{"sorted", ScanOptions{Order: []algebra.OrderKey{{Field: "lon"}}}},
		{"aggregate", ScanOptions{Aggregate: &spec}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur, err := e.Scan("Traces", tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if cur.exec.agg != nil {
				t.Fatal("the drained cursor still holds its aggregate state")
			}
			for j := 0; j < 2; j++ {
				if _, ok, err := cur.Next(); err != nil || !ok {
					t.Fatalf("row %d: ok=%v err=%v", j, ok, err)
				}
			}
			cur.Close()
			if r, ok, err := cur.Next(); ok || err != nil {
				t.Fatalf("Next after Close: row=%v ok=%v err=%v", r, ok, err)
			}
			if _, ok, err := cur.NextBatch(); ok || err != nil {
				t.Fatalf("NextBatch after Close: ok=%v err=%v", ok, err)
			}
			cur.Close()
			if n := pool.Pinned(); n != 0 {
				t.Fatalf("%d pins after Close", n)
			}
		})
	}
}

// TestWarmPoolScanReadsNoPage scans a table that fits the pool twice: the
// second scan returns the same rows without a single miss.
func TestWarmPoolScanReadsNoPage(t *testing.T) {
	e, pool := pooledGridEngine(t, 4000, 2048)
	scan := func() []value.Row {
		cur, err := e.Scan("Traces", ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		return drain(t, cur)
	}
	cold := scan()
	if len(cold) != 4000 {
		t.Fatalf("cold scan: %d rows", len(cold))
	}
	afterCold := pool.Stats()
	if afterCold.Evictions != 0 {
		t.Fatalf("table does not fit the pool: %+v", afterCold)
	}
	warm := scan()
	sameRows(t, warm, cold)
	s := pool.Stats()
	if s.Misses != afterCold.Misses || s.Hits == afterCold.Hits {
		t.Fatalf("warm scan: stats %+v after cold %+v, want hits only", s, afterCold)
	}
}

// TestProjectedScanMatchesFullScan checks a projected scan over a
// multi-block gridded table value for value against the same columns of
// the full scan.
func TestProjectedScanMatchesFullScan(t *testing.T) {
	e := gridEngine(t, 3000)
	full, err := e.Scan("Traces", ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	all := drain(t, full)
	proj, err := e.Scan("Traces", ScanOptions{Fields: []string{"lon", "t"}})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]value.Row, len(all))
	for i, r := range all {
		want[i] = value.Row{r[2], r[0]}
	}
	sameRows(t, drain(t, proj), want)
}

// TestMaterializedSortRestoresLoadOrder sorts a gridded table, which stores
// rows in cell order, by t: the result is exactly the rows as loaded.
func TestMaterializedSortRestoresLoadOrder(t *testing.T) {
	e := gridEngine(t, 2000)
	cur, err := e.Scan("Traces", ScanOptions{Order: []algebra.OrderKey{{Field: "t"}}})
	if err != nil {
		t.Fatal(err)
	}
	stored, err := e.Scan("Traces", ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if first := drain(t, stored)[0]; first[0].Int() == 0 {
		t.Fatalf("grid layout kept load order; the sort has nothing to do")
	}
	sameRows(t, drain(t, cur), traceRows(2000))
}
