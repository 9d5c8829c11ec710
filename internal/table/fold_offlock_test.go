package table

import (
	"errors"
	"fmt"
	"slices"
	"strings"
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

// TestInsertsDoNotWaitForLayoutChange parks a layout change in its render —
// an eager AlterLayout, or a Scan applying a lazy mark — and issues 8
// durable inserts beside it: every one is acknowledged while the fold is
// still parked, because a layout change, like every fold, holds no table
// lock until its splice. Once it lands, every row is there exactly once, the
// tails published meanwhile carry the new layout's segments (the splice
// re-encoded them), and no pin is left.
func TestInsertsDoNotWaitForLayoutChange(t *testing.T) {
	const target = "cols(Traces)"
	for _, tc := range []struct {
		name   string
		mark   func(e *Engine) error // before the gate is armed
		change func(e *Engine) error // parked in its render
	}{
		{"eager", func(*Engine) error { return nil }, func(e *Engine) error { return e.AlterLayout("Traces", target, ReorgEager) }},
		{"lazy", func(e *Engine) error { return e.AlterLayout("Traces", target, ReorgLazy) }, func(e *Engine) error {
			cur, err := e.Scan("Traces", ScanOptions{})
			if err == nil {
				cur.Close()
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, _, gate := gatedEngine(t)
			if err := tc.mark(e); err != nil {
				t.Fatal(err)
			}
			gate.state.Store(1)
			changed := make(chan error, 1)
			go func() { changed <- tc.change(e) }()
			gate.await(t)

			const inserts = 8
			acks := make(chan error, inserts)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range inserts {
					acks <- e.Insert("Traces", idRows(20+10*i, 10))
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
					t.Errorf("%d of %d inserts acknowledged while the layout change was parked", i, inserts)
				}
				break
			}
			close(gate.open)
			wg.Wait()
			if err := <-changed; err != nil {
				t.Fatal(err)
			}
			want := [][]string{{"t"}, {"lat"}, {"lon"}, {"id"}}
			if got := lastTailFields(t, e, "Traces"); !slices.EqualFunc(got, want, slices.Equal) {
				t.Errorf("tail segments %v, want the new layout's %v", got, want)
			}
			requireIDs(t, e, 20+10*inserts)
			requireIntegrity(t, e)
			if n := e.vers.pinned(); n != 0 {
				t.Fatalf("%d pins after the layout change landed", n)
			}
		})
	}
}

// TestChangeToInsertRefusingLayoutBlocksInserts parks a change to a layout
// that refuses inserts (limit[]) in its render — an eager AlterLayout, or a
// Scan applying a lazy mark — and issues an insert beside it. The rows it
// would add could not be re-encoded under that layout, so the change renders
// under the exclusive lock: the insert waits for it, and then fails as any
// insert into that layout does, while the change lands with every row it
// read.
func TestChangeToInsertRefusingLayoutBlocksInserts(t *testing.T) {
	const target = "limit[100](orderby[t](Traces))"
	for _, tc := range []struct {
		name   string
		mark   func(e *Engine) error // before the gate is armed
		change func(e *Engine) error // parked in its render
	}{
		{"eager", func(*Engine) error { return nil }, func(e *Engine) error { return e.AlterLayout("Traces", target, ReorgEager) }},
		{"lazy", func(e *Engine) error { return e.AlterLayout("Traces", target, ReorgLazy) }, func(e *Engine) error {
			cur, err := e.Scan("Traces", ScanOptions{})
			if err == nil {
				cur.Close()
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, _, gate := gatedEngine(t)
			if err := tc.mark(e); err != nil {
				t.Fatal(err)
			}
			gate.state.Store(1)
			changed := make(chan error, 1)
			go func() { changed <- tc.change(e) }()
			gate.await(t)

			inserted := make(chan error, 1)
			go func() { inserted <- e.Insert("Traces", idRows(20, 10)) }()
			select {
			case err := <-inserted:
				t.Errorf("an insert returned %v while the change was parked", err)
			case <-time.After(100 * time.Millisecond):
			}
			close(gate.open)
			if err := <-changed; err != nil {
				t.Fatal(err)
			}
			if err := <-inserted; err == nil || !strings.Contains(err.Error(), "cannot Insert into a limit[] layout") {
				t.Errorf("insert after the change landed: %v", err)
			}
			if tab, err := e.cat.Get("Traces"); err != nil || tab.LayoutExpr != target || tab.NeedsReorg {
				t.Fatalf("layout after the change: %+v %v", tab, err)
			}
			requireIDs(t, e, 20)
			requireIntegrity(t, e)
			if n := e.vers.pinned(); n != 0 {
				t.Fatalf("%d pins after the layout change landed", n)
			}
		})
	}
}

// TestFoldLosesRace parks a background fold in its render, and meanwhile a
// Drop replaces the parts it read: the fold finds them gone at its splice,
// frees its output (the parked write's page is free again) and latches no
// merge error. An eager AlterLayout, or a lazy mark that Reorganize applies,
// waits for the parked fold instead — a layout change holds the fold latch —
// and re-renders its output under the new layout once it has spliced. A Drop
// while an eager alter's own render is parked makes the alter return
// catalog.ErrNotFound and free its output. The store reopens with the right
// rows, and a further Compact works.
func TestFoldLosesRace(t *testing.T) {
	const newLayout = "sizetiered[3](orderby[t](Traces))"
	for _, tc := range []struct {
		name string
		race func(e *Engine) error
	}{
		{"drop", func(e *Engine) error { return e.Drop("Traces") }},
		{"eager-alter", func(e *Engine) error { return e.AlterLayout("Traces", newLayout, ReorgEager) }},
		{"lazy-reorganize", func(e *Engine) error {
			if err := e.AlterLayout("Traces", newLayout, ReorgLazy); err != nil {
				return err
			}
			return e.Reorganize("Traces")
		}},
		{"drop-during-layout-change", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, fs, gate := gatedEngine(t)
			dropped := tc.race == nil || tc.name == "drop"
			switch {
			case tc.race == nil:
				gate.state.Store(1)
				altered := make(chan error, 1)
				go func() { altered <- e.AlterLayout("Traces", newLayout, ReorgEager) }()
				gate.await(t)
				if err := e.Drop("Traces"); err != nil {
					close(gate.open)
					t.Fatal(err)
				}
				close(gate.open)
				if err := <-altered; !errors.Is(err, catalog.ErrNotFound) {
					t.Fatalf("an eager alter whose table was dropped returned %v", err)
				}
			case dropped:
				parkBackgroundFold(t, e, gate)
				if err := tc.race(e); err != nil {
					close(gate.open)
					t.Fatal(err)
				}
				close(gate.open)
			default:
				parkBackgroundFold(t, e, gate)
				raced := make(chan error, 1)
				go func() { raced <- tc.race(e) }()
				close(gate.open)
				if err := <-raced; err != nil {
					t.Fatal(err)
				}
			}
			e.WaitMerges()
			if err := e.MergeErr(); err != nil {
				t.Fatalf("the background fold latched %v", err)
			}
			// Probed before anything else allocates: the checkpoint below
			// may reuse the page for the catalog.
			if page := pager.PageID(gate.at.Load() / int64(e.file.PageSize())); dropped && !pageFree(t, e.file, page) {
				t.Errorf("the lost fold's output page %d is still allocated", page)
			}
			e.DisableAutoMerge()
			if err := e.mgr.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			back := openDurable(t, vfs.NewFaultFromImages(1, fs.SnapshotCrash(vfs.CrashDrop)))
			if dropped {
				if _, err := back.RowCount("Traces"); !errors.Is(err, catalog.ErrNotFound) {
					t.Fatalf("dropped table after reopen: %v", err)
				}
			} else {
				requireIDs(t, back, 30)
				if tab, err := back.cat.Get("Traces"); err != nil || tab.LayoutExpr != newLayout || tab.NeedsReorg {
					t.Fatalf("layout after reopen: %+v %v", tab, err)
				}
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
