package table

import (
	"fmt"
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/buffer"
	"rodentstore/internal/value"
)

// dictRunAllocs loads a dict-coded table whose blocks hold rowsPerBlock
// rows over `entries` distinct ids and returns the allocations of one
// steady-state blockExec.run under opts, reading through a warm pool.
func dictRunAllocs(t *testing.T, rowsPerBlock, entries int, opts ScanOptions) float64 {
	t.Helper()
	e, _, _ := newEngine(t)
	schema := value.MustSchema(
		value.Field{Name: "t", Type: value.Int},
		value.Field{Name: "x", Type: value.Float},
		value.Field{Name: "id", Type: value.Str},
	)
	layout := fmt.Sprintf("chunk[%d](delta[t](dict[id](cols(T))))", rowsPerBlock)
	if err := e.Create("T", schema, layout); err != nil {
		t.Fatal(err)
	}
	rows := make([]value.Row, 4*rowsPerBlock)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewFloat(float64(i % 97)), value.NewString(fmt.Sprintf("car-%04d", i%entries))}
	}
	if err := e.Load("T", rows); err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.NewPool(e.file, 1024)
	if err != nil {
		t.Fatal(err)
	}
	e.Source = pool
	cur, err := e.Scan("T", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	blocks := cur.plan.blocks
	if len(blocks) != 4 {
		t.Fatalf("%d blocks, want 4", len(blocks))
	}
	for _, b := range blocks { // fill the pool
		if res := cur.exec.run(b); res.err != nil {
			t.Fatal(res.err)
		} else {
			batchPool.Put(res.batch)
		}
	}
	if st := pool.Stats(); st.Misses == 0 || st.Misses > uint64(pool.Capacity()) {
		t.Fatalf("pool of %d pages cannot hold the table: %+v", pool.Capacity(), st)
	}
	i := 0
	return testing.AllocsPerRun(40, func() {
		res := cur.exec.run(blocks[i%len(blocks)])
		i++
		if res.err != nil {
			t.Fatal(res.err)
		}
		batchPool.Put(res.batch)
	})
}

// TestDictBlockRunAllocations is the steady-state allocation check of the
// dictionary form over a warm pool: one block through blockExec.run
// allocates neither per row, nor per dictionary entry, nor per page (a pool
// hit copies its range out without a pin or a release func). The batch
// paths (whole blocks and a filtered gather) allocate nothing; what the
// aggregate path allocates is its fresh partial state, whose group table
// grows by doubling, so a dictionary thirty times larger may add only those
// doublings.
func TestDictBlockRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts over sync.Pool are not steady under -race")
	}
	const rows, few, many = 4096, 8, 256
	agg := AggSpec{GroupBy: []string{"id"}, Items: []AggItem{{Func: AggCount}, {Func: AggAvg, Expr: mustExpr(t, "x")}}}
	for _, c := range []struct {
		name              string
		opts              ScanOptions
		perBlock, perDict float64 // bounds: allocations per block, and added by the larger dictionary
	}{
		{"batch", ScanOptions{}, 2, 2},
		{"filtered batch", ScanOptions{Pred: algebra.True.And("x", algebra.OpLt, value.NewFloat(30))}, 2, 2},
		{"aggregate", ScanOptions{Aggregate: &agg}, 64, 32},
	} {
		small := dictRunAllocs(t, rows, few, c.opts)
		large := dictRunAllocs(t, rows, many, c.opts)
		t.Logf("%s: %.0f allocations per %d-row block over %d entries, %.0f over %d", c.name, small, rows, few, large, many)
		if large > c.perBlock {
			t.Errorf("%s: %.0f allocations for one block of %d rows", c.name, large, rows)
		}
		if large-small > c.perDict {
			t.Errorf("%s: %d more dictionary entries cost %.0f more allocations", c.name, many-few, large-small)
		}
	}
}
