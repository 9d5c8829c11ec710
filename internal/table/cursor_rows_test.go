package table

import (
	"fmt"
	"math/rand"
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/value"
)

// slabEngine loads a table of several 300-row blocks — wider than the
// chunk Next boxes at a time, so chunk and block seams fall apart — with a
// dictionary-coded Str column, plus a tail batch.
func slabEngine(t *testing.T) (*Engine, []value.Row) {
	t.Helper()
	e, _, _ := newEngine(t)
	if err := e.Create("T", vecSchema(), "chunk[300](dict[s](cols(T)))"); err != nil {
		t.Fatal(err)
	}
	rows := vecRows(rand.New(rand.NewSource(17)), 1100)
	if err := e.Load("T", rows[:1000]); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("T", rows[1000:]); err != nil {
		t.Fatal(err)
	}
	return e, rows
}

// TestNextThenNextBatchAtEverySeam drains cursors that call Next k times
// and then NextBatch, repeatedly, for k on both sides of the boxing chunk
// and of a block boundary: every mix must yield exactly the rows Next alone
// and NextBatch alone yield.
func TestNextThenNextBatchAtEverySeam(t *testing.T) {
	e, _ := slabEngine(t)
	for _, base := range []ScanOptions{
		{},
		{Fields: []string{"s", "x"}, Pred: algebra.True.And("x", algebra.OpLt, value.NewFloat(70))},
	} {
		want := oracleScan(t, e, "T", base)
		for _, v := range scanVariants(base) {
			scan := func() *Cursor {
				cur, err := e.Scan("T", v.opts)
				if err != nil {
					t.Fatal(err)
				}
				return cur
			}
			cur := scan()
			requireRows(t, v.name+" Next alone", drain(t, cur), want)
			cur.Close()
			cur = scan()
			requireRows(t, v.name+" NextBatch alone", drainBatches(t, cur), want)
			cur.Close()
			for _, k := range []int{1, 2, 63, 64, 65, 128, 299, 300, 301, 650} {
				cur := scan()
				var got []value.Row
				for done := false; !done; {
					for i := 0; i < k; i++ {
						r, ok, err := cur.Next()
						if err != nil {
							t.Fatal(err)
						}
						if !ok {
							done = true
							break
						}
						got = append(got, r)
					}
					if done {
						break
					}
					b, ok, err := cur.NextBatch()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
					for i := 0; i < b.Len(); i++ {
						got = append(got, b.Row(i))
					}
				}
				cur.Close()
				requireRows(t, fmt.Sprintf("%s: Next x%d then NextBatch", v.name, k), got, want)
			}
		}
	}
}

// TestNextRowsOutliveCursor keeps every row Next returned over several
// blocks and checks them against the oracle only after the cursor is
// exhausted and closed and another scan has recycled its batches: rows
// share nothing with the cursor. Each row's capacity ends at its arity, so
// appending to one leaves the row after it, carved from the same slab,
// unchanged.
func TestNextRowsOutliveCursor(t *testing.T) {
	e, _ := slabEngine(t)
	want := oracleScan(t, e, "T", ScanOptions{})
	cur, err := e.Scan("T", ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, cur)
	if _, ok, err := cur.Next(); ok || err != nil {
		t.Fatalf("exhausted cursor: ok=%v err=%v", ok, err)
	}
	cur.Close()
	again, err := e.Scan("T", ScanOptions{Fields: []string{"s", "t"}})
	if err != nil {
		t.Fatal(err)
	}
	drainBatches(t, again)
	again.Close()
	requireRows(t, "rows after Close", got, want)

	for i := 0; i+1 < len(got); i++ {
		if cap(got[i]) != len(got[i]) {
			t.Fatalf("row %d: capacity %d beyond arity %d", i, cap(got[i]), len(got[i]))
		}
		next := append(value.Row(nil), got[i+1]...)
		_ = append(got[i], value.NewInt(-1))
		requireRows(t, fmt.Sprintf("row %d after an append to row %d", i+1, i), got[i+1:i+2], []value.Row{next})
	}
}

// cursorNextEngine is a one-block table of 4,096 rows (an Int, a Float and
// a dictionary-coded Str column) read through a warm chunk cache.
func cursorNextEngine(t testing.TB) *Engine {
	e, _, _ := newEngine(t)
	schema := value.MustSchema(
		value.Field{Name: "t", Type: value.Int},
		value.Field{Name: "x", Type: value.Float},
		value.Field{Name: "id", Type: value.Str},
	)
	if err := e.Create("T", schema, "chunk[4096](delta[t](dict[id](cols(T))))"); err != nil {
		t.Fatal(err)
	}
	rows := make([]value.Row, 4096)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewFloat(float64(i % 97)), value.NewString(fmt.Sprintf("car-%02d", i%16))}
	}
	if err := e.Load("T", rows); err != nil {
		t.Fatal(err)
	}
	e.EnableCache(256 * int64(e.file.PageSize()))
	return e
}

// scanNext opens a full scan, drains it through Next and returns how many
// rows it yielded.
func scanNext(t testing.TB, e *Engine) int {
	cur, err := e.Scan("T", ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	n := 0
	for {
		_, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return n
		}
		n++
	}
}

// TestCursorNextAllocations pins Next's boxing at one allocation per slab
// of rows, not one per row: a whole scan of a 4,096-row block — planning,
// fetch, decode and boxing every row — stays under 0.1 allocations a row.
func TestCursorNextAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts over sync.Pool are not steady under -race")
	}
	e := cursorNextEngine(t)
	if n := scanNext(t, e); n != 4096 { // also warms the cache
		t.Fatalf("%d rows", n)
	}
	allocs := testing.AllocsPerRun(20, func() { scanNext(t, e) })
	t.Logf("%.0f allocations per 4096-row scan (%.3f per row)", allocs, allocs/4096)
	if allocs/4096 >= 0.1 {
		t.Fatalf("%.0f allocations for 4096 rows drained through Next", allocs)
	}
}

// BenchmarkCursorNext times a full scan of one 4,096-row block drained
// through Next over a warm chunk cache.
func BenchmarkCursorNext(b *testing.B) {
	e := cursorNextEngine(b)
	scanNext(b, e)
	b.ReportAllocs()
	for b.Loop() {
		scanNext(b, e)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*4096), "ns/row")
}
