package table

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/catalog"
	"rodentstore/internal/oracle"
	"rodentstore/internal/pager"
	"rodentstore/internal/txn"
	"rodentstore/internal/value"
	"rodentstore/internal/vfs"
	"rodentstore/internal/wal"
)

func TestThreeDimensionalGrid(t *testing.T) {
	e, _, _ := newEngine(t)
	schema := value.MustSchema(
		value.Field{Name: "x", Type: value.Float},
		value.Field{Name: "y", Type: value.Float},
		value.Field{Name: "z", Type: value.Float},
	)
	if err := e.Create("Cube", schema, "zorder(grid[x,y,z; 4,4,4](Cube))"); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	rows := make([]value.Row, 2000)
	for i := range rows {
		rows[i] = value.Row{
			value.NewFloat(r.Float64()),
			value.NewFloat(r.Float64()),
			value.NewFloat(r.Float64()),
		}
	}
	if err := e.Load("Cube", rows); err != nil {
		t.Fatal(err)
	}
	// Full scan returns everything.
	cur, _ := e.Scan("Cube", ScanOptions{})
	if got := drain(t, cur); len(got) != 2000 {
		t.Fatalf("3D scan rows: %d", len(got))
	}
	// An octant query returns exactly the brute-force result.
	pred, _ := algebra.ParsePredicate("x < 0.5 and y < 0.5 and z < 0.5")
	cur2, err := e.Scan("Cube", ScanOptions{Pred: pred})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, cur2)
	want := 0
	for _, row := range rows {
		if row[0].Float() < 0.5 && row[1].Float() < 0.5 && row[2].Float() < 0.5 {
			want++
		}
	}
	if len(got) != want {
		t.Errorf("octant query: got %d want %d", len(got), want)
	}
	// 3-D cell addressing via GetElement.
	cur3, err := e.GetElement("Cube", nil, []int64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if r0, ok, _ := cur3.Next(); !ok || r0[0].Float() >= 0.5 {
		t.Errorf("cell (0,0,0) row: %v ok=%v", r0, ok)
	}
}

func TestNoZonePruneReadsEverything(t *testing.T) {
	e, f, _ := setup(t, "chunk[64](groupby[id](orderby[t](Traces)))", 3000)
	pred, _ := algebra.ParsePredicate("lat >= 42.3599 and lat < 42.3601")

	f.ResetStats()
	cur, _ := e.Scan("Traces", ScanOptions{Pred: pred})
	pruned := drain(t, cur)
	prunedPages := f.Stats().PageReads

	f.ResetStats()
	cur2, _ := e.Scan("Traces", ScanOptions{Pred: pred, NoZonePrune: true})
	full := drain(t, cur2)
	fullPages := f.Stats().PageReads

	if len(pruned) != len(full) {
		t.Fatalf("pruning changed results: %d vs %d", len(pruned), len(full))
	}
	if prunedPages >= fullPages {
		t.Errorf("zone maps should prune clustered data: pruned=%d full=%d", prunedPages, fullPages)
	}
}

// TestZoneMapsKeepNaNRows: predicates order NaN below every number, so a
// zone map must never prune a block whose NaN rows a bound admits. Over a
// block mixing NaN and numbers, an all-NaN block and NaN-free ones, a pruned
// scan, a NoZonePrune scan and oracle.Eval agree for every comparison
// against literals below, inside and above the data, of either numeric kind.
func TestZoneMapsKeepNaNRows(t *testing.T) {
	e, _, _ := newEngine(t)
	schema := value.MustSchema(value.Field{Name: "lat", Type: value.Float})
	if err := e.Create("T", schema, "chunk[4](rows(T))"); err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	var rows []value.Row
	for _, x := range []float64{nan, 10, 11, 12, nan, nan, nan, nan, 5, 6, nan, math.Inf(-1), 20, 21, 22, 23} {
		rows = append(rows, value.Row{value.NewFloat(x)})
	}
	if err := e.Load("T", rows); err != nil {
		t.Fatal(err)
	}
	for _, op := range []algebra.CmpOp{algebra.OpLt, algebra.OpLe, algebra.OpGt, algebra.OpGe} {
		for _, lit := range []value.Value{
			value.NewFloat(math.Inf(-1)), value.NewInt(0), value.NewFloat(5), value.NewInt(10),
			value.NewFloat(15.5), value.NewInt(25),
		} {
			pred := algebra.True.And("lat", op, lit)
			var want []value.Row
			for _, row := range rows {
				if oracle.Eval(pred, schema, row) {
					want = append(want, row)
				}
			}
			for _, noZone := range []bool{false, true} {
				cur, err := e.Scan("T", ScanOptions{Pred: pred, NoZonePrune: noZone})
				if err != nil {
					t.Fatal(err)
				}
				got := drain(t, cur)
				if len(got) != len(want) {
					t.Fatalf("%s (NoZonePrune %v): %d rows, Eval %d", pred, noZone, len(got), len(want))
				}
				sameMultiset(t, got, want)
			}
		}
	}
}

func TestConcurrentScansAndInserts(t *testing.T) {
	// Engine with the lock manager wired in: concurrent readers and writers
	// must stay consistent (no torn reads, counts only grow).
	dir := t.TempDir()
	path := filepath.Join(dir, "conc.rdnt")
	f, err := pager.Create(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log, err := wal.Open(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	cat, _ := catalog.Load(f)
	e := mustEngine(t, f, cat, txn.NewManager(f, log))

	if err := e.Create("Traces", tracesSchema(), "rows(Traces)"); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("Traces", traceRows(500)); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				cur, err := e.Scan("Traces", ScanOptions{})
				if err != nil {
					errCh <- err
					return
				}
				n := 0
				for {
					_, ok, err := cur.Next()
					if err != nil {
						errCh <- err
						return
					}
					if !ok {
						break
					}
					n++
				}
				if n < 500 {
					errCh <- &countError{n}
					return
				}
			}
		}(int64(w))
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if err := e.Insert("Traces", traceRows(20)); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if n, _ := e.RowCount("Traces"); n != 500+2*5*20 {
		t.Errorf("final count: %d", n)
	}
}

type countError struct{ n int }

func (e *countError) Error() string { return "scan saw fewer rows than loaded" }

func TestScanAfterSegmentCorruption(t *testing.T) {
	// Damage a data page on disk: scans must fail with a checksum error,
	// never return corrupt rows silently.
	path := ""
	{
		e, f, p := newEngine(t)
		path = p
		e.Create("Traces", tracesSchema(), "rows(Traces)")
		e.Load("Traces", traceRows(2000))
		f.Close()
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the data region.
	raw[len(raw)/2] ^= 0xff
	os.WriteFile(path, raw, 0o644)

	f, err := pager.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := catalog.Load(f); err != nil {
		// Corruption may have landed in the catalog extent; also a pass.
		return
	}
	e := engineOn(t, vfs.OS, path, f)
	cur, err := e.Scan("Traces", ScanOptions{})
	if err != nil {
		return // failing at open is acceptable
	}
	for {
		_, ok, err := cur.Next()
		if err != nil {
			return // detected — good
		}
		if !ok {
			t.Fatal("scan over corrupted file completed without error")
		}
	}
}

func TestLimitLayout(t *testing.T) {
	e, _, _ := setup(t, "limit[100](orderby[lat](Traces))", 500)
	cur, _ := e.Scan("Traces", ScanOptions{})
	got := drain(t, cur)
	if len(got) != 100 {
		t.Fatalf("limit layout stored %d rows", len(got))
	}
	// The stored rows are the 100 smallest lats.
	for i := 1; i < len(got); i++ {
		if got[i][1].Float() < got[i-1][1].Float() {
			t.Fatal("limit layout lost ordering")
		}
	}
	// Insert into a limit layout is rejected.
	if err := e.Insert("Traces", traceRows(5)); err == nil {
		t.Error("insert into limit layout should fail")
	}
}

func TestUnfoldLayoutRoundtrip(t *testing.T) {
	e, _, _ := newEngine(t)
	schema := value.MustSchema(
		value.Field{Name: "area", Type: value.Int},
		value.Field{Name: "zip", Type: value.Int},
	)
	if err := e.Create("Areas", schema, "unfold(fold[zip; area](Areas))"); err != nil {
		t.Fatal(err)
	}
	rows := []value.Row{
		{value.NewInt(617), value.NewInt(2139)},
		{value.NewInt(212), value.NewInt(10001)},
		{value.NewInt(617), value.NewInt(2142)},
	}
	if err := e.Load("Areas", rows); err != nil {
		t.Fatal(err)
	}
	cur, _ := e.Scan("Areas", ScanOptions{})
	got := drain(t, cur)
	// unfold(fold(x)) = x regrouped: 3 flat rows, grouped by area.
	if len(got) != 3 {
		t.Fatalf("rows: %d", len(got))
	}
	if got[0][0].Int() != 617 || got[1][0].Int() != 617 || got[2][0].Int() != 212 {
		t.Errorf("group order: %v", got)
	}
}

func TestEmptyTableScans(t *testing.T) {
	e, _, _ := newEngine(t)
	e.Create("Traces", tracesSchema(), "rows(Traces)")
	cur, err := e.Scan("Traces", ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, cur); len(got) != 0 {
		t.Errorf("empty table scan: %d rows", len(got))
	}
	if _, err := e.GetElement("Traces", nil, []int64{0}); err == nil {
		t.Error("getElement on empty table should fail")
	}
	est, err := e.EstimateScan("Traces", ScanOptions{})
	if err != nil || est.Pages != 0 {
		t.Errorf("empty estimate: %+v %v", est, err)
	}
}

func TestConcurrentScansTriggerLazyReorgOnce(t *testing.T) {
	// A pending lazy reorganization observed by many concurrent readers
	// must run exactly once (under the exclusive lock): shared-lock readers
	// reorganizing in place would each free the same old extents, and the
	// doubled free list would hand one extent to two tables.
	dir := t.TempDir()
	path := filepath.Join(dir, "lazy.rdnt")
	f, err := pager.Create(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log, err := wal.Open(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	cat, _ := catalog.Load(f)
	e := mustEngine(t, f, cat, txn.NewManager(f, log))
	if err := e.Create("Traces", tracesSchema(), "rows(Traces)"); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("Traces", traceRows(800)); err != nil {
		t.Fatal(err)
	}
	if err := e.AlterLayout("Traces", "orderby[lat](Traces)", ReorgLazy); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur, err := e.Scan("Traces", ScanOptions{})
			if err != nil {
				errCh <- err
				return
			}
			n := 0
			for {
				_, ok, err := cur.Next()
				if err != nil {
					errCh <- err
					return
				}
				if !ok {
					break
				}
				n++
			}
			if n != 800 {
				errCh <- &countError{n}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// A double free would let this load reuse the reorganized table's
	// pages; verify the original data survives a new table's allocation.
	if err := e.Create("Other", tracesSchema(), "rows(Other)"); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("Other", traceRows(800)); err != nil {
		t.Fatal(err)
	}
	if got := countRows(t, e, "Traces"); got != 800 {
		t.Errorf("rows after concurrent lazy reorg + new load: %d, want 800", got)
	}
}

// durableEnv builds an engine over real files, returning
// the pieces so a test can simulate a crash by closing them without a
// checkpoint.
func durableEnv(t *testing.T, path string) (*Engine, *pager.File, *wal.Log, *txn.Manager) {
	t.Helper()
	f, err := pager.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		f, err = pager.Create(path, 1024)
	}
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	mgr := txn.NewManager(f, log)
	e := mustEngine(t, f, cat, mgr)
	return e, f, log, mgr
}

func countRows(t *testing.T, e *Engine, name string) int {
	t.Helper()
	cur, err := e.Scan(name, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return len(drain(t, cur))
}

func TestDurableInsertCrashRecovery(t *testing.T) {
	// Durable inserts log one tail record each; the catalog itself is only
	// updated in memory until a checkpoint. A crash before any checkpoint
	// must lose nothing: recovery rebuilds the tails from the records.
	path := filepath.Join(t.TempDir(), "crash.rdnt")
	e, f, log, _ := durableEnv(t, path)
	if err := e.Create("Traces", tracesSchema(), "rows(Traces)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := e.Insert("Traces", traceRows(20)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: close the files with no checkpoint. The on-disk catalog still
	// has zero tails; only the WAL knows about the inserts.
	log.Close()
	f.Close()

	e2, f2, log2, mgr2 := durableEnv(t, path)
	n, err := mgr2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("recovered %d txns, want 3", n)
	}
	if got := countRows(t, e2, "Traces"); got != 60 {
		t.Errorf("rows after recovery: %d, want 60", got)
	}
	if rc, _ := e2.RowCount("Traces"); rc != 60 {
		t.Errorf("RowCount after recovery: %d, want 60", rc)
	}
	// Recovery flushed the rebuilt catalog before truncating the log, so a
	// further reopen (now with an empty log) still sees the rows.
	log2.Close()
	f2.Close()
	e3, f3, log3, mgr3 := durableEnv(t, path)
	defer func() { log3.Close(); f3.Close() }()
	if n, err := mgr3.Recover(); err != nil || n != 0 {
		t.Fatalf("second recovery: n=%d err=%v", n, err)
	}
	if got := countRows(t, e3, "Traces"); got != 60 {
		t.Errorf("rows after clean reopen: %d, want 60", got)
	}
}

func TestSmallDurableInsertsDoNotCheckpointEachCommit(t *testing.T) {
	// The checkpoint trigger counts the frees flips queue, not the catalog's
	// old extent, which every checkpoint's flush queues again: counting it,
	// a catalog at its share of the file would make every commit checkpoint
	// (a full catalog rewrite and two fsyncs each).
	path := filepath.Join(t.TempDir(), "small.rdnt")
	e, f, log, mgr := durableEnv(t, path)
	defer func() { log.Close(); f.Close() }()
	mgr.CheckpointBytes = 16 << 10 // the catalog passes 1/32 of it within a few dozen tails
	if err := e.Create("Traces", tracesSchema(), "rows(Traces)"); err != nil {
		t.Fatal(err)
	}
	checkpoints := 0
	after := mgr.AfterCheckpoint
	mgr.AfterCheckpoint = func() error {
		checkpoints++
		return after()
	}
	const inserts = 300
	for i := 0; i < inserts; i++ {
		if err := e.Insert("Traces", traceRows(2)); err != nil {
			t.Fatal(err)
		}
	}
	if checkpoints > inserts/10 {
		t.Errorf("%d inserts of one tail each ran %d checkpoints, want at most %d", inserts, checkpoints, inserts/10)
	}
}

func TestConcurrentDurableInsertsWithCheckpoints(t *testing.T) {
	// Durable inserts update the catalog in memory; the checkpoint policy
	// flushes it from whatever goroutine trips the size trigger — racing
	// the copy-on-write publish path. Run under -race this guards the
	// record-swap discipline (catalog.Catalog.Get). The levelled case adds
	// the background merge pool, folding runs of two tables at once beside
	// the writers (buffered flips share the engine's free queue).
	cases := []struct {
		layout    string // %s is the table's name
		autoMerge bool
	}{
		{"rows(%s)", false},
		{"leveled[4](orderby[t](%s))", true},
	}
	tables := []string{"Traces", "Other"}
	for _, tc := range cases {
		t.Run(fmt.Sprintf(tc.layout, "Traces"), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ckpt.rdnt")
			e, f, log, mgr := durableEnv(t, path)
			defer func() { log.Close(); f.Close() }()
			mgr.CheckpointBytes = 8 << 10 // tiny: checkpoints fire throughout the run
			for _, name := range tables {
				if err := e.Create(name, tracesSchema(), fmt.Sprintf(tc.layout, name)); err != nil {
					t.Fatal(err)
				}
			}
			if tc.autoMerge {
				e.EnableAutoMerge(0) // the policy's own fanout triggers folds
				defer e.DisableAutoMerge()
			}
			const writers, rounds, batch = 4, 25, 10
			var wg sync.WaitGroup
			errCh := make(chan error, writers)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						if err := e.Insert(tables[w%len(tables)], traceRows(batch)); err != nil {
							errCh <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
			if tc.autoMerge {
				e.WaitMerges()
				if err := e.MergeErr(); err != nil {
					t.Fatalf("background merge: %v", err)
				}
				if st := e.CompactStats(); st.Merges == 0 {
					t.Errorf("no background fold ran: %+v", st)
				}
			}
			want := int64(writers / len(tables) * rounds * batch)
			for _, name := range tables {
				if rc, _ := e.RowCount(name); rc != want {
					t.Errorf("%s: RowCount %d, want %d", name, rc, want)
				}
				if got := countRows(t, e, name); int64(got) != want {
					t.Errorf("%s: scanned rows %d, want %d", name, got, want)
				}
			}
		})
	}
}

func TestDurableInsertDeltaReplayIdempotent(t *testing.T) {
	// A DDL between durable inserts and a crash flushes the full catalog —
	// tails included — while the deltas are still in the WAL. Recovery
	// re-applies them; the extent-identity check must skip batches the
	// flush already captured, or rows would duplicate.
	path := filepath.Join(t.TempDir(), "dup.rdnt")
	e, f, log, _ := durableEnv(t, path)
	if err := e.Create("Traces", tracesSchema(), "rows(Traces)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := e.Insert("Traces", traceRows(20)); err != nil {
			t.Fatal(err)
		}
	}
	// Create flushes the whole catalog (buffered tails included); the WAL
	// still holds the three deltas.
	if err := e.Create("Other", tracesSchema(), "rows(Other)"); err != nil {
		t.Fatal(err)
	}
	log.Close()
	f.Close()

	e2, f2, log2, mgr2 := durableEnv(t, path)
	defer func() { log2.Close(); f2.Close() }()
	if _, err := mgr2.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := countRows(t, e2, "Traces"); got != 60 {
		t.Errorf("rows after recovery: %d, want 60 (deltas must not re-apply)", got)
	}
	if rc, _ := e2.RowCount("Traces"); rc != 60 {
		t.Errorf("RowCount after recovery: %d, want 60", rc)
	}
}

func TestLoadEmptyThenInsert(t *testing.T) {
	e, _, _ := newEngine(t)
	e.Create("Traces", tracesSchema(), "orderby[t](Traces)")
	if err := e.Load("Traces", nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("Traces", traceRows(10)); err != nil {
		t.Fatal(err)
	}
	cur, _ := e.Scan("Traces", ScanOptions{})
	if got := drain(t, cur); len(got) != 10 {
		t.Errorf("rows: %d", len(got))
	}
}
