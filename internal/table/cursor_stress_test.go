package table

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/value"
)

// TestConcurrentCursorStress runs 16 goroutines over one gridded table,
// each with cursors of its own: scans drained by Next, by NextBatch or by
// the two in turn, grouped aggregations, and scans closed mid-stream, while
// one more goroutine loops Compact over the table. The cursors share the
// batch pool and the chunk cache, and every Compact frees extents the cache
// holds chunks of, so under -race (CI runs it with GOMAXPROCS=4, twice) a
// pooled batch reused across goroutines, or a cached chunk served after its
// extent was freed, shows. Every result must equal what a lone cursor
// returned, no version pin may outlive the cursors, and the cache stays
// within its budget.
func TestConcurrentCursorStress(t *testing.T) {
	e, _, _ := newEngine(t)
	if err := e.Create("T", aggSchema(), "chunk[64](zorder(grid[t,y; 8,8](rows(T))))"); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("T", aggRows(rand.New(rand.NewSource(11)), 4000)); err != nil {
		t.Fatal(err)
	}
	const budget = 256 << 10
	e.EnableCache(budget)

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
	errs := make(chan error, goroutines+1)
	// Beside the cursors, Compact re-renders the table over and over: each
	// one supersedes every part the open cursors read, whose pins keep those
	// parts from being freed under them.
	stop := make(chan struct{})
	compactions := 0
	var compactor sync.WaitGroup
	compactor.Add(1)
	go func() {
		defer compactor.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.Compact("T"); err != nil {
				errs <- fmt.Errorf("compact: %w", err)
				return
			}
			compactions++
		}
	}()
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
	close(stop)
	compactor.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if compactions == 0 {
		t.Error("no Compact ran beside the cursors")
	}
	if s := e.cache.stats(); s.hits == 0 || s.misses == 0 || s.bytes > budget {
		t.Errorf("expected cache hits and misses within %d bytes, got %+v", budget, s)
	}
	if n := e.vers.pinned(); n != 0 {
		t.Errorf("%d version pins leaked", n)
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
