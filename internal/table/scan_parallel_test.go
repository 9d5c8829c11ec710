package table

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"rodentstore/internal/algebra"
	"rodentstore/internal/buffer"
	"rodentstore/internal/value"
)

// parallelEngine loads a gridded Traces table with enough blocks for the
// parallel scanner to have real work.
func parallelEngine(t *testing.T, n int) *Engine {
	t.Helper()
	e, _, _ := newEngine(t)
	layout := "chunk[64](zorder(grid[lat,lon; 8,8](Traces)))"
	if err := e.Create("Traces", tracesSchema(), layout); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("Traces", traceRows(n)); err != nil {
		t.Fatal(err)
	}
	return e
}

func rowsEqual(a, b []value.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j].String() != b[i][j].String() {
				return false
			}
		}
	}
	return true
}

func TestParallelScanMatchesSerial(t *testing.T) {
	e := parallelEngine(t, 5000)
	pred := algebra.True.
		And("lat", algebra.OpGe, value.NewFloat(42.35)).
		And("lat", algebra.OpLt, value.NewFloat(42.37))
	for _, workers := range []int{1, 2, 4, 8} {
		serial, err := e.Scan("Traces", ScanOptions{Pred: pred})
		if err != nil {
			t.Fatal(err)
		}
		want := drain(t, serial)
		par, err := e.Scan("Traces", ScanOptions{Pred: pred, Parallel: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := drain(t, par)
		if !rowsEqual(want, got) {
			t.Fatalf("workers=%d: parallel scan differs from serial (%d vs %d rows)", workers, len(got), len(want))
		}
	}
}

func TestParallelScanFullTableAndProjection(t *testing.T) {
	e := parallelEngine(t, 3000)
	serial, err := e.Scan("Traces", ScanOptions{Fields: []string{"lat", "lon"}})
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, serial)
	if len(want) != 3000 {
		t.Fatalf("serial full scan rows = %d", len(want))
	}
	par, err := e.Scan("Traces", ScanOptions{Fields: []string{"lat", "lon"}, Parallel: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, par)
	if !rowsEqual(want, got) {
		t.Fatal("parallel projected scan differs from serial")
	}
}

func TestParallelScanWarmPool(t *testing.T) {
	e := parallelEngine(t, 4000)
	pool, err := buffer.NewPool(e.file, 512)
	if err != nil {
		t.Fatal(err)
	}
	e.Source = pool
	serial, err := e.Scan("Traces", ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, serial) // also warms the pool
	par, err := e.Scan("Traces", ScanOptions{Parallel: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, par)
	if !rowsEqual(want, got) {
		t.Fatal("parallel warm scan differs from serial")
	}
	if s := pool.Stats(); s.Hits == 0 {
		t.Errorf("warm parallel scan should hit the pool: %+v", s)
	}
}

func TestParallelScanMaterializedSort(t *testing.T) {
	e := parallelEngine(t, 2000)
	order := []algebra.OrderKey{{Field: "t"}}
	serial, err := e.Scan("Traces", ScanOptions{Order: order})
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, serial)
	par, err := e.Scan("Traces", ScanOptions{Order: order, Parallel: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, par)
	if !rowsEqual(want, got) {
		t.Fatal("parallel sorted scan differs from serial")
	}
}

func TestParallelScanEarlyClose(t *testing.T) {
	e := parallelEngine(t, 4000)
	for i := 0; i < 20; i++ {
		cur, err := e.Scan("Traces", ScanOptions{Parallel: true, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		// Read a few rows, then abandon the cursor; workers must stop
		// without deadlock or leak (run under -race).
		for j := 0; j < 3; j++ {
			if _, ok, err := cur.Next(); err != nil || !ok {
				t.Fatalf("row %d: ok=%v err=%v", j, ok, err)
			}
		}
		cur.Close()
	}
}

// TestParallelScanAbandonedCursor abandons partially-consumed parallel
// cursors without Close; the GC cleanup must cancel their pipelines so the
// dispatcher/worker goroutines exit instead of leaking.
func TestParallelScanAbandonedCursor(t *testing.T) {
	e := parallelEngine(t, 4000)
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		cur, err := e.Scan("Traces", ScanOptions{Parallel: true, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := cur.Next(); err != nil || !ok {
			t.Fatalf("ok=%v err=%v", ok, err)
		}
		// Abandoned: no Close.
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after GC", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestParallelScanStress hammers one table from many client goroutines,
// each running its own parallel scan, over a shared sharded pool. Run with
// -race; it asserts row counts, pool stat consistency, and that every pin
// was released (Invalidate fails if any frame is still pinned).
func TestParallelScanStress(t *testing.T) {
	const n = 4000
	e := parallelEngine(t, n)
	pool, err := buffer.NewPool(e.file, 256)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Shards() < 2 {
		t.Fatalf("stress pool should be sharded, got %d shards", pool.Shards())
	}
	e.Source = pool

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				cur, err := e.Scan("Traces", ScanOptions{Parallel: c%2 == 0, Workers: 3})
				if err != nil {
					errs <- err
					return
				}
				count := 0
				for {
					_, ok, err := cur.Next()
					if err != nil {
						errs <- err
						return
					}
					if !ok {
						break
					}
					count++
				}
				cur.Close()
				if count != n {
					errs <- fmt.Errorf("client %d scan %d: %d rows, want %d", c, i, count, n)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := pool.Stats()
	if s.Hits == 0 || s.Misses == 0 {
		t.Errorf("expected pool traffic, got %+v", s)
	}
	if n := pool.Pinned(); n != 0 {
		t.Errorf("%d pins leaked", n)
	}
}
