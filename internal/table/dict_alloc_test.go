package table

import (
	"fmt"
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/value"
)

// dictRunAllocs loads a dict-coded table whose blocks hold rowsPerBlock
// rows over `entries` distinct ids and returns the allocations of one
// steady-state blockExec.run under opts.
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
	cur, err := e.Scan("T", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	blocks := cur.plan.blocks
	if len(blocks) != 4 {
		t.Fatalf("%d blocks, want 4", len(blocks))
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
// dictionary form: one block through blockExec.run allocates neither per
// row nor per dictionary entry, on the batch path (whole blocks and a
// filtered gather) and on the aggregate path. What a block does allocate is
// one release func per leased page (the buffer layer's) and, when
// aggregating, its fresh partial state, whose group table grows by
// doubling; so the counts are held far below the row and entry counts, and
// a dictionary thirty times larger may add only those doublings.
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
		{"batch", ScanOptions{}, rows / 64, 8},
		{"filtered batch", ScanOptions{Pred: algebra.True.And("x", algebra.OpLt, value.NewFloat(30))}, rows / 64, 8},
		{"aggregate", ScanOptions{Aggregate: &agg}, rows / 32, (many - few) / 4},
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
