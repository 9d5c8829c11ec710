package table

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/buffer"
	"rodentstore/internal/value"
)

// TestConcurrentCursorStress runs 16 goroutines over one gridded table,
// each with cursors of its own: scans drained by Next, by NextBatch or by
// the two in turn, grouped aggregations, and scans closed mid-stream. The
// cursors share the batch pool and a sharded buffer pool, so under -race
// (CI runs it with GOMAXPROCS=4, twice) a pooled batch or frame reused
// across goroutines shows. Every result must equal what a lone cursor
// returned, and no pin may outlive the cursors.
func TestConcurrentCursorStress(t *testing.T) {
	e, _, _ := newEngine(t)
	if err := e.Create("T", aggSchema(), "chunk[64](zorder(grid[t,y; 8,8](rows(T))))"); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("T", aggRows(rand.New(rand.NewSource(11)), 4000)); err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.NewPool(e.file, 256)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Shards() < 2 {
		t.Fatalf("stress pool should be sharded, got %d shards", pool.Shards())
	}
	e.Source = pool

	pred := algebra.True.
		And("t", algebra.OpLt, value.NewInt(3000)).
		And("y", algebra.OpGe, value.NewFloat(2.5))
	spec := AggSpec{GroupBy: []string{"s"}, Items: []AggItem{
		{Func: AggCount}, {Func: AggSum, Expr: mustExpr(t, "t")}, {Func: AggSum, Expr: mustExpr(t, "x")},
	}}
	const (
		opNext = iota
		opBatch
		opMixed
		opAgg
		opClose
		numOps
	)
	lone := func(opts ScanOptions) []value.Row {
		cur, err := e.Scan("T", opts)
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		return drain(t, cur)
	}
	want := lone(ScanOptions{Pred: pred})
	wantAgg := lone(ScanOptions{Pred: pred, Aggregate: &spec})
	if len(want) == 0 || len(wantAgg) < 2 {
		t.Fatalf("degenerate workload: %d rows, %d groups", len(want), len(wantAgg))
	}

	run := func(op, g int) error {
		opts := ScanOptions{Pred: pred}
		if op == opAgg {
			opts.Aggregate = &spec
		}
		cur, err := e.Scan("T", opts)
		if err != nil {
			return err
		}
		defer cur.Close()
		if op == opClose {
			// Hold a batch and a few boxed rows of the next one, then close.
			if _, _, err := cur.NextBatch(); err != nil {
				return err
			}
			for i := 0; i < 3; i++ {
				if _, _, err := cur.Next(); err != nil {
					return err
				}
			}
			return nil
		}
		mode, w := op, want
		if op == opAgg {
			mode, w = g%opAgg, wantAgg
		}
		got, err := drainBy(cur, mode)
		if err != nil {
			return err
		}
		if len(got) != len(w) {
			return fmt.Errorf("op %d: %d rows, lone cursor %d", op, len(got), len(w))
		}
		for i := range w {
			for c := range w[i] {
				if !value.Equal(got[i][c], w[i][c]) {
					return fmt.Errorf("op %d row %d col %d: %v, lone cursor %v", op, i, c, got[i][c], w[i][c])
				}
			}
		}
		return nil
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < numOps; it++ {
				if err := run((g+it)%numOps, g); err != nil {
					errs <- fmt.Errorf("goroutine %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := pool.Stats(); s.Hits == 0 || s.Misses == 0 {
		t.Errorf("expected pool traffic, got %+v", s)
	}
	if n := pool.Pinned(); n != 0 {
		t.Errorf("%d pins leaked", n)
	}
}

// drainBy drains c by Next (mode 0), by NextBatch (mode 1) or by the two in
// turn (mode 2), boxing batch rows as it goes. It returns its error rather
// than failing the test, so any goroutine may call it.
func drainBy(c *Cursor, mode int) ([]value.Row, error) {
	var out []value.Row
	for step := 0; ; step++ {
		if mode == 0 || mode == 2 && step%2 == 0 {
			row, ok, err := c.Next()
			if err != nil || !ok {
				return out, err
			}
			out = append(out, row)
			continue
		}
		b, ok, err := c.NextBatch()
		if err != nil || !ok {
			return out, err
		}
		for i := 0; i < b.Len(); i++ {
			out = append(out, b.Row(i))
		}
	}
}
