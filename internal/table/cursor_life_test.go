package table

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"rodentstore/internal/algebra"
	"rodentstore/internal/value"
	"rodentstore/internal/vfs"
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

// cachedGridEngine is gridEngine with a chunk cache of the given number of
// pages' worth of bytes.
func cachedGridEngine(t *testing.T, n, pages int) *Engine {
	t.Helper()
	e := gridEngine(t, n)
	e.EnableCache(int64(pages) * int64(e.file.PageSize()))
	return e
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

// TestCursorCloseEarly closes each kind of cursor — streaming, materialized
// order-by and aggregation — after a few rows: it then reports the end on
// Next and NextBatch, and a second Close is harmless. An aggregation,
// drained when Scan returns, already holds no group table.
func TestCursorCloseEarly(t *testing.T) {
	e := cachedGridEngine(t, 4000, 256)
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
		})
	}
}

// TestWarmPoolScanReadsNoPage scans a table that fits the cache twice: the
// second scan returns the same rows without a single miss or page read.
func TestWarmPoolScanReadsNoPage(t *testing.T) {
	e := cachedGridEngine(t, 4000, 2048)
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
	afterCold := e.cache.stats()
	if afterCold.evictions != 0 {
		t.Fatalf("table does not fit the cache: %+v", afterCold)
	}
	e.file.ResetStats()
	warm := scan()
	sameRows(t, warm, cold)
	s := e.cache.stats()
	if s.misses != afterCold.misses || s.hits == afterCold.hits {
		t.Fatalf("warm scan: stats %+v after cold %+v, want hits only", s, afterCold)
	}
	if n := e.file.Stats().PageReads; n != 0 {
		t.Fatalf("warm scan read %d pages", n)
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

// TestDroppedCursorsReleasePins drops partly read cursors without Close and
// supersedes every part they read with a Compact. Once the collector has
// run, no version is pinned any more, and the next checkpoint frees the
// superseded extents: no table extent is left in the free queue.
func TestDroppedCursorsReleasePins(t *testing.T) {
	e := openDurable(t, vfs.NewFault(44))
	if err := e.Create("Traces", tracesSchema(), "chunk[64](rows(Traces))"); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("Traces", traceRows(2000)); err != nil {
		t.Fatal(err)
	}
	func() {
		for i := 0; i < 3; i++ {
			cur, err := e.Scan("Traces", ScanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok, err := cur.NextBatch(); err != nil || !ok {
				t.Fatalf("ok=%v err=%v", ok, err)
			}
			// Dropped: no Close.
		}
	}()
	if n := e.vers.pinned(); n != 3 {
		t.Fatalf("%d pins held by 3 open cursors", n)
	}
	if err := e.Compact("Traces"); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); e.vers.pinned() > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d pins left after the cursors were collected", e.vers.pinned())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if err := e.mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e.vers.mu.Lock()
	defer e.vers.mu.Unlock()
	for _, f := range slices.Concat(e.vers.waiting, e.vers.staged, e.vers.ready) {
		if f.epoch > 0 { // not the old catalog extent the checkpoint's flush queued
			t.Fatalf("superseded extent %+v still queued after the checkpoint", f.ext)
		}
	}
}
