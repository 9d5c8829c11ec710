package table

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"rodentstore/internal/pager"
	"rodentstore/internal/value"
	"rodentstore/internal/vfs"
)

// stageTail prepares rows against the table's current record, as Insert's
// lock-free phase does.
func stageTail(t *testing.T, e *Engine, name string, rows []value.Row) *stagedTail {
	t.Helper()
	tab, err := e.cat.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.prepareTail(tab, rows)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// publishStaged runs Insert's publish phase for a stage under the exclusive
// table lock.
func publishStaged(t *testing.T, e *Engine, name string, st *stagedTail, rows []value.Row) {
	t.Helper()
	err := e.withLock(name, exclusive, func() error {
		_, err := e.publishTail(name, st, rows)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// lastTailFields lists the fields of each segment of the table's newest
// tail.
func lastTailFields(t *testing.T, e *Engine, name string) [][]string {
	t.Helper()
	tab, err := e.cat.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Tails) == 0 {
		t.Fatal("no tail published")
	}
	var out [][]string
	for _, seg := range tab.Tails[len(tab.Tails)-1] {
		out = append(out, seg.Fields)
	}
	return out
}

// TestInsertPublishesUnderMovedLayout stages a tail under rows(Traces), lets
// an eager AlterLayout move the table to cols(Traces), then publishes: the
// tail is re-encoded under the new layout, and every row scans back once.
func TestInsertPublishesUnderMovedLayout(t *testing.T) {
	e, _, _ := newEngine(t)
	if err := e.Create("Traces", tracesSchema(), "rows(Traces)"); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("Traces", idRows(0, 10)); err != nil {
		t.Fatal(err)
	}
	rows := idRows(10, 10)
	st := stageTail(t, e, "Traces", rows)
	if err := e.AlterLayout("Traces", "cols(Traces)", ReorgEager); err != nil {
		t.Fatal(err)
	}
	publishStaged(t, e, "Traces", st, rows)

	want := [][]string{{"t"}, {"lat"}, {"lon"}, {"id"}}
	if got := lastTailFields(t, e, "Traces"); !slices.EqualFunc(got, want, slices.Equal) {
		t.Errorf("tail segments %v, want the new layout's %v", got, want)
	}
	requireIDs(t, e, 20)
	requireIntegrity(t, e)
}

// TestInsertPublishesUnderRecreatedSchema stages a tail, then drops the
// table and creates it again with the same layout text and its first field
// renamed. The publish must notice the schema moved even though the layout
// text did not: the tail carries the new fields, and a scan projecting the
// renamed field reads every row once.
func TestInsertPublishesUnderRecreatedSchema(t *testing.T) {
	e, _, _ := newEngine(t)
	if err := e.Create("Traces", tracesSchema(), "rows(Traces)"); err != nil {
		t.Fatal(err)
	}
	rows := idRows(0, 10)
	st := stageTail(t, e, "Traces", rows)
	if err := e.Drop("Traces"); err != nil {
		t.Fatal(err)
	}
	renamed := value.MustSchema(
		value.Field{Name: "ts", Type: value.Int},
		value.Field{Name: "lat", Type: value.Float},
		value.Field{Name: "lon", Type: value.Float},
		value.Field{Name: "id", Type: value.Str},
	)
	if err := e.Create("Traces", renamed, "rows(Traces)"); err != nil {
		t.Fatal(err)
	}
	publishStaged(t, e, "Traces", st, rows)

	want := [][]string{{"ts", "lat", "lon", "id"}}
	if got := lastTailFields(t, e, "Traces"); !slices.EqualFunc(got, want, slices.Equal) {
		t.Errorf("tail segments %v, want the re-created schema's %v", got, want)
	}
	cur, err := e.Scan("Traces", ScanOptions{Fields: []string{"ts"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	seen := make(map[int64]int)
	for _, r := range drainBatches(t, cur) {
		seen[r[0].Int()]++
	}
	for id := range len(rows) {
		if seen[int64(id)] != 1 {
			t.Errorf("row %d read %d times, want once", id, seen[int64(id)])
		}
	}
	requireIntegrity(t, e)
}

// TestInsertsRaceEagerAlterLayout runs durable inserters against a loop of
// eager AlterLayout calls cycling the table through three layouts. Every
// acknowledged row is read back exactly once.
func TestInsertsRaceEagerAlterLayout(t *testing.T) {
	const inserters, batches, batchRows = 4, 20, 10
	e := openDurable(t, vfs.NewFault(43))
	if err := e.Create("Traces", tracesSchema(), "rows(Traces)"); err != nil {
		t.Fatal(err)
	}
	layouts := []string{"cols(Traces)", "orderby[t](Traces)", "rows(Traces)"}
	stop := make(chan struct{})
	alterErr := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				alterErr <- nil
				return
			default:
			}
			if err := e.AlterLayout("Traces", layouts[i%len(layouts)], ReorgEager); err != nil {
				alterErr <- fmt.Errorf("alter %d: %w", i, err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, inserters)
	for w := range inserters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range batches {
				if err := e.Insert("Traces", idRows((w*batches+b)*batchRows, batchRows)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-alterErr; err != nil {
		t.Fatal(err)
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	requireIDs(t, e, inserters*batches*batchRows)
	requireIntegrity(t, e)
}

// TestFailedTailPublishLeaksNoExtent fails the write of the second segment
// of a cols(...) tail: the insert fails, the segments written before it and
// the failed one's own extent go back to free space at once, and — with no
// reopen, whose reclaim would hide a leak — the pages the catalog owns and
// the pages the pager holds free account for every page below the cursor.
// The table still scans back exactly its loaded rows.
func TestFailedTailPublishLeaksNoExtent(t *testing.T) {
	fs := vfs.NewFault(9)
	e, f := faultEngine(t, fs)
	if err := e.Create("T", tracesSchema(), "cols(T)"); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("T", traceRows(500)); err != nil {
		t.Fatal(err)
	}
	var armed atomic.Bool
	writes := 0
	fs.Inject = func(op vfs.Op) vfs.Decision {
		if op.Kind == vfs.OpWrite && op.Path == "db.rdnt" && armed.Load() {
			if writes++; writes == 2 {
				return vfs.Fail
			}
		}
		return vfs.OK
	}
	armed.Store(true)
	err := e.Insert("T", traceRows(300))
	armed.Store(false)
	if !errors.Is(err, vfs.ErrInjected) || writes != 2 {
		t.Fatalf("insert over a failing second segment write: %v after %d writes", err, writes)
	}
	rep, err := e.CheckIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("integrity issues: %v", rep.Issues)
	}
	if allocated := f.NumPages(); rep.OwnedPages != allocated {
		t.Fatalf("%d pages below the cursor are neither owned nor free (%d owned, %d free)",
			allocated-rep.OwnedPages, rep.OwnedPages, rep.FreePages)
	}
	cur, err := e.Scan("T", ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if n := len(drain(t, cur)); n != 500 {
		t.Fatalf("%d rows after the failed insert, want 500", n)
	}
}

// TestFailedFlipFreesFoldOutput fails the closing checkpoint of a fold, of a
// Reorganize and of a Load, at the catalog flush's page-file sync. A flip's
// publish is buffered and cannot fail, so the flip stays published in
// memory and its fold's output is the table's: nothing is freed, and the
// parts it replaced wait in the free queue. With no reopen, whose reclaim
// would hide a leak, the pages the catalog owns, the pages queued and the
// pages the pager holds free account for every page below the cursor. The
// failed fsync may have dropped the output's writes, so it is latched: no
// later checkpoint persists the flip, and a power cut recovers the table as
// the last checkpoint and the log left it, never half applied.
func TestFailedFlipFreesFoldOutput(t *testing.T) {
	for _, step := range []struct {
		name      string
		run       func(e *Engine) error
		published map[string]int // rows in memory after the failure
		tails     int            // T's tails in memory after the failure
	}{
		{"Reorganize", func(e *Engine) error { return e.Reorganize("T") }, map[string]int{"T": 800, "U": 0}, 0},
		{"Load", func(e *Engine) error { return e.Load("U", traceRows(400)) }, map[string]int{"T": 800, "U": 400}, 1},
	} {
		t.Run(step.name, func(t *testing.T) {
			fs := vfs.NewFault(10)
			e, f := faultEngine(t, fs)
			for _, name := range []string{"T", "U"} {
				if err := e.Create(name, tracesSchema(), "cols("+name+")"); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Load("T", traceRows(500)); err != nil {
				t.Fatal(err)
			}
			if err := e.Insert("T", traceRows(300)); err != nil {
				t.Fatal(err)
			}
			var armed atomic.Bool
			fs.Inject = func(op vfs.Op) vfs.Decision {
				if op.Kind == vfs.OpSync && op.Path == "db.rdnt" && armed.CompareAndSwap(true, false) {
					return vfs.Fail
				}
				return vfs.OK
			}
			armed.Store(true)
			if err := step.run(e); !errors.Is(err, vfs.ErrInjected) || armed.Load() {
				t.Fatalf("%s over a failing checkpoint: %v", step.name, err)
			}
			accounted := func(stage string) uint64 {
				t.Helper()
				rep, err := e.CheckIntegrity()
				if err != nil || !rep.OK() {
					t.Fatalf("after %s: integrity %v %v", stage, err, rep.Issues)
				}
				q := queuedPages(e)
				if allocated := f.NumPages(); rep.OwnedPages+q != allocated {
					t.Fatalf("after %s: %d pages below the cursor are neither owned, queued nor free (%d owned, %d queued, %d free)",
						stage, allocated-rep.OwnedPages-q, rep.OwnedPages, q, rep.FreePages)
				}
				return q
			}
			queued := accounted("the failed checkpoint")
			if tab, _ := e.cat.Get("T"); len(tab.Tails) != step.tails {
				t.Fatalf("T has %d tails in memory, want %d", len(tab.Tails), step.tails)
			}
			requireCounts(t, e, "published", step.published)

			if err := e.mgr.Checkpoint(); !errors.Is(err, vfs.ErrInjected) {
				t.Fatalf("a checkpoint after the failed fsync: %v", err)
			}
			if accounted("a second checkpoint") != queued {
				t.Fatal("a failed checkpoint freed replaced parts")
			}
			snap := vfs.NewFaultFromImages(1, fs.SnapshotCrash(vfs.CrashDrop))
			back, err := pager.OpenAt(snap, "db.rdnt")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { back.Close() })
			reopened := engineOn(t, snap, "db.rdnt", back)
			requireIntegrity(t, reopened)
			requireCounts(t, reopened, "after a power cut", map[string]int{"T": 800, "U": 0})
		})
	}
}

// queuedPages counts the pages waiting in e's free queue.
func queuedPages(e *Engine) (pages uint64) {
	e.vers.mu.Lock()
	defer e.vers.mu.Unlock()
	for _, q := range [][]pendingFree{e.vers.waiting, e.vers.staged, e.vers.ready} {
		for _, p := range q {
			pages += p.ext.Count
		}
	}
	return pages
}

// requireCounts fails t unless each named table scans back its row count.
func requireCounts(t *testing.T, e *Engine, stage string, want map[string]int) {
	t.Helper()
	for name, n := range want {
		if got := countRows(t, e, name); got != n {
			t.Fatalf("%s: %s has %d rows, want %d", stage, name, got, n)
		}
	}
}
