package table

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rodentstore/internal/catalog"
	"rodentstore/internal/pager"
	"rodentstore/internal/value"
	"rodentstore/internal/vfs"
)

// foldGate parks a fold in its render. Armed, it waits for the first read of
// the page file (a fold's read-back: nothing else in these tests reads
// pages) and then parks the first page write after it (the fold's first
// output write) until open is closed. A header write at offset 0 is let
// through: the catalog flush that issues it holds the pager's mutex.
type foldGate struct {
	state  atomic.Int32 // 0 idle, 1 armed, 2 fold reading, 3 parked or done
	at     atomic.Int64 // offset of the parked write
	parked chan struct{}
	open   chan struct{}
}

func newFoldGate() *foldGate {
	return &foldGate{parked: make(chan struct{}), open: make(chan struct{})}
}

func (g *foldGate) inject(op vfs.Op) vfs.Decision {
	if op.Path != interleavePath {
		return vfs.OK
	}
	switch {
	case op.Kind == vfs.OpRead && g.state.CompareAndSwap(1, 2):
	case op.Kind == vfs.OpWrite && op.Off > 0 && g.state.CompareAndSwap(2, 3):
		g.at.Store(op.Off)
		close(g.parked)
		<-g.open
	}
	return vfs.OK
}

// await fails the test unless the gate parks a write within the deadline.
func (g *foldGate) await(t *testing.T) {
	t.Helper()
	select {
	case <-g.parked:
	case <-time.After(10 * time.Second):
		close(g.open)
		t.Fatal("no fold reached its render")
	}
}

// gatedEngine is a durable engine on a fault file system whose writes pass
// through a fold gate, with a sizetiered[3] Traces table holding two tails
// of 10 rows (ids 0-19). The page file stays far below the pager's 128 page
// stripes, so the parked write's stripe locks cover no page the test reads
// or writes.
func gatedEngine(t *testing.T) (*Engine, *vfs.Fault, *foldGate) {
	t.Helper()
	gate := newFoldGate()
	fs := vfs.NewFault(41)
	fs.Inject = gate.inject
	e := openDurable(t, fs)
	if err := e.Create("Traces", tracesSchema(), "sizetiered[3](orderby[lat](Traces))"); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 2; b++ {
		if err := e.Insert("Traces", idRows(10*b, 10)); err != nil {
			t.Fatal(err)
		}
	}
	return e, fs, gate
}

// parkBackgroundFold enables the merge pool and inserts the third tail
// (ids 20-29), which triggers a background fold, and returns once the gate
// has parked that fold in its render.
func parkBackgroundFold(t *testing.T, e *Engine, gate *foldGate) {
	t.Helper()
	e.EnableAutoMerge(100)
	gate.state.Store(1)
	if err := e.Insert("Traces", idRows(20, 10)); err != nil {
		t.Fatal(err)
	}
	gate.await(t)
}

// pinned reports how many version pins are live.
func (v *versions) pinned() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for _, c := range v.pins {
		n += c
	}
	return n
}

// requireIDs fails unless the table holds each of ids [0, n) exactly once.
func requireIDs(t *testing.T, e *Engine, n int) {
	t.Helper()
	cur, err := e.Scan("Traces", ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	seen := make(map[int64]int)
	for _, r := range drainBatches(t, cur) {
		seen[r[0].Int()]++
	}
	for id := range n {
		if seen[int64(id)] != 1 {
			t.Errorf("row %d present %d times, want once", id, seen[int64(id)])
		}
	}
	if len(seen) != n {
		t.Errorf("%d distinct rows, want %d", len(seen), n)
	}
	if rc, err := e.RowCount("Traces"); err != nil || rc != int64(n) {
		t.Errorf("RowCount %d (%v), want %d", rc, err, n)
	}
}

func requireIntegrity(t *testing.T, e *Engine) {
	t.Helper()
	if rep, err := e.CheckIntegrity(); err != nil || !rep.OK() {
		t.Fatalf("integrity: %v %v", err, rep.Issues)
	}
}

// TestInsertsDoNotWaitForFold parks a background fold in its render and
// issues 8 durable inserts beside it: every one is acknowledged while the
// fold is still parked, because a fold holds no table lock until its splice.
// Once it finishes, every row is there exactly once.
func TestInsertsDoNotWaitForFold(t *testing.T) {
	e, _, gate := gatedEngine(t)
	defer e.DisableAutoMerge()
	parkBackgroundFold(t, e, gate)

	const inserts = 8
	acks := make(chan error, inserts)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range inserts {
			acks <- e.Insert("Traces", idRows(30+10*i, 10))
		}
	}()
	deadline := time.After(10 * time.Second)
	for i := 0; i < inserts; i++ {
		select {
		case err := <-acks:
			if err != nil {
				t.Fatal(err)
			}
			continue
		case <-deadline:
			t.Errorf("%d of %d inserts acknowledged while the fold was parked", i, inserts)
		}
		break
	}
	close(gate.open)
	wg.Wait()
	e.WaitMerges()
	if err := e.MergeErr(); err != nil {
		t.Fatal(err)
	}
	requireIDs(t, e, 30+10*inserts)
	requireIntegrity(t, e)
}

// TestFoldLosesRace parks a background fold in its render, and meanwhile a
// Drop, an eager AlterLayout or a lazy mark that Reorganize applies replaces
// the parts it read. The fold then finds them gone at its splice: it frees
// its output (the parked write's page is free again) and latches no merge
// error. The store reopens with the right rows, and a further Compact works.
func TestFoldLosesRace(t *testing.T) {
	const relayout = "sizetiered[3](orderby[t](Traces))"
	for _, tc := range []struct {
		name string
		race func(e *Engine) error
	}{
		{"drop", func(e *Engine) error { return e.Drop("Traces") }},
		{"eager-alter", func(e *Engine) error { return e.AlterLayout("Traces", relayout, ReorgEager) }},
		{"lazy-reorganize", func(e *Engine) error {
			if err := e.AlterLayout("Traces", relayout, ReorgLazy); err != nil {
				return err
			}
			return e.Reorganize("Traces")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, fs, gate := gatedEngine(t)
			parkBackgroundFold(t, e, gate)
			if err := tc.race(e); err != nil {
				close(gate.open)
				t.Fatal(err)
			}
			close(gate.open)
			e.WaitMerges()
			if err := e.MergeErr(); err != nil {
				t.Fatalf("the fold that lost its parts latched %v", err)
			}
			// Probed before anything else allocates: the checkpoint below
			// may reuse the page for the catalog.
			if page := pager.PageID(gate.at.Load() / int64(e.file.PageSize())); !pageFree(t, e.file, page) {
				t.Errorf("the lost fold's output page %d is still allocated", page)
			}
			e.DisableAutoMerge()
			if err := e.mgr.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			back := openDurable(t, vfs.NewFaultFromImages(1, fs.SnapshotCrash(vfs.CrashDrop)))
			if tc.name == "drop" {
				if _, err := back.RowCount("Traces"); !errors.Is(err, catalog.ErrNotFound) {
					t.Fatalf("dropped table after reopen: %v", err)
				}
			} else {
				requireIDs(t, back, 30)
				if err := back.Compact("Traces"); err != nil {
					t.Fatal(err)
				}
				requireIDs(t, back, 30)
			}
			requireIntegrity(t, back)
		})
	}
}

// pageFree reports whether page is on f's free list: single-page
// allocations take free pages lowest first, so if it is free one of the
// first page+1 of them returns it.
func pageFree(t *testing.T, f *pager.File, page pager.PageID) bool {
	t.Helper()
	for range page + 1 {
		id, err := f.AllocateRun(1)
		if err != nil {
			t.Fatal(err)
		}
		if id == page {
			return true
		}
	}
	return false
}

// TestCursorPinsAcrossCompact reads one batch of a scan, then runs a
// Compact that supersedes every part the scan reads, a checkpoint, and
// inserts enough to reuse every page the Compact freed. The scan still
// returns exactly the rows it would have returned before the Compact: its
// pin keeps the parts it has not read yet from being freed.
func TestCursorPinsAcrossCompact(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			var e *Engine
			if durable {
				e = openDurable(t, vfs.NewFault(43))
			} else {
				e, _, _ = newEngine(t)
			}
			if err := e.Create("Traces", tracesSchema(), "chunk[32](rows(Traces))"); err != nil {
				t.Fatal(err)
			}
			if err := e.Load("Traces", idRows(0, 600)); err != nil {
				t.Fatal(err)
			}
			for b := 0; b < 3; b++ {
				if err := e.Insert("Traces", idRows(600+100*b, 100)); err != nil {
					t.Fatal(err)
				}
			}
			want := scanAll(t, e)

			cur, err := e.Scan("Traces", ScanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			b, ok, err := cur.NextBatch()
			if err != nil || !ok {
				t.Fatalf("first batch: ok=%v err=%v", ok, err)
			}
			var got []value.Row
			for i := 0; i < b.Len(); i++ {
				got = append(got, b.Row(i))
			}

			if err := e.Compact("Traces"); err != nil {
				t.Fatal(err)
			}
			if err := e.checkpoint(); err != nil {
				t.Fatal(err)
			}
			for b := 0; b < 12; b++ { // the 900 rows again, and more
				if err := e.Insert("Traces", idRows(10_000+100*b, 100)); err != nil {
					t.Fatal(err)
				}
			}
			got = append(got, drainBatches(t, cur)...)
			requireRows(t, "scan across Compact", got, want)
			if n := e.vers.pinned(); n != 0 {
				t.Fatalf("%d pins after the scan ended", n)
			}
		})
	}
}

// scanAll drains a full scan of Traces.
func scanAll(t *testing.T, e *Engine) []value.Row {
	t.Helper()
	cur, err := e.Scan("Traces", ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	return drainBatches(t, cur)
}
