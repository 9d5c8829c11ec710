package table

import (
	"fmt"
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/value"
)

// dictRunAllocs loads a dict-coded table whose blocks hold rowsPerBlock
// rows over `entries` distinct ids and returns the allocations of one
// steady-state blockExec.run under opts, reading through a warm chunk cache. An
// aggregating scan's blocks fold into one state, as runAggregate's do.
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
	const cachePages = 1024
	e.EnableCache(cachePages * int64(e.file.PageSize()))
	cur, err := e.Scan("T", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	blocks := cur.plan.blocks
	if len(blocks) != 4 {
		t.Fatalf("%d blocks, want 4", len(blocks))
	}
	if cur.plan.agg != nil {
		cur.exec.agg = cur.plan.agg.newState()
	}
	for _, ref := range blocks { // fill the cache
		b, err := cur.exec.run(ref)
		if err != nil {
			t.Fatal(err)
		}
		batchPool.Put(b)
	}
	if st := e.cache.stats(); st.misses == 0 || st.evictions > 0 {
		t.Fatalf("cache of %d pages cannot hold the table: %+v", cachePages, st)
	}
	i := 0
	return testing.AllocsPerRun(40, func() {
		b, err := cur.exec.run(blocks[i%len(blocks)])
		i++
		if err != nil {
			t.Fatal(err)
		}
		batchPool.Put(b)
	})
}

// TestDictBlockRunAllocations is the steady-state allocation check of the
// dictionary form over a warm chunk cache: one block through blockExec.run
// allocates neither per row, nor per dictionary entry, nor per column (a
// cache hit copies the decoded chunk into the pooled batch's buffers). The batch
// paths (whole blocks and a filtered gather) allocate nothing, and neither
// does the aggregate path: a warm block folds into the scan's one state,
// whose group table and accumulators already hold every group it names.
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
		{"aggregate", ScanOptions{Aggregate: &agg}, 2, 2},
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
