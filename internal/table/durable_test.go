package table

import (
	"errors"
	"os"
	"testing"

	"rodentstore/internal/catalog"
	"rodentstore/internal/pager"
	"rodentstore/internal/txn"
	"rodentstore/internal/value"
	"rodentstore/internal/vfs"
	"rodentstore/internal/wal"
)

const interleavePath = "interleave.rdnt"

// openDurable opens (creating when absent) a durable engine on fs and runs
// recovery. Size-triggered checkpoints are off: the caller decides when one
// runs.
func openDurable(t *testing.T, fs vfs.FS) *Engine {
	t.Helper()
	f, err := pager.OpenAt(fs, interleavePath)
	if errors.Is(err, os.ErrNotExist) {
		f, err = pager.CreateAt(fs, interleavePath, 1024)
	}
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.OpenAt(fs, interleavePath+".wal")
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	mgr := txn.NewManager(f, log)
	mgr.CheckpointBytes = 0
	e := mustEngine(t, f, cat, mgr)
	if _, err := mgr.Recover(); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	e.SyncInserts = true
	return e
}

// idRows returns n trace rows whose t column numbers them from lo.
func idRows(lo, n int) []value.Row {
	rows := traceRows(n)
	for i := range rows {
		rows[i][0] = value.NewInt(int64(lo + i))
	}
	return rows
}

// TestLateTailRecordAfterFoldFreeAndReuse interleaves the steps the tail
// record makes safe: an insert into A publishes its tail; before it logs the
// tail's record, a Compact folds the tail, a checkpoint frees the tail's
// extent, and inserts into B reuse that extent. Only then is A's record
// appended, and the power is cut. Every acknowledged row of both tables
// comes back exactly once, and both tables read back whole.
func TestLateTailRecordAfterFoldFreeAndReuse(t *testing.T) {
	for _, mode := range []vfs.CrashMode{vfs.CrashDrop, vfs.CrashKeep, vfs.CrashTorn} {
		fs := vfs.NewFault(31)
		e := openDurable(t, fs)
		for _, name := range []string{"A", "B"} {
			if err := e.Create(name, tracesSchema(), "rows("+name+")"); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Insert("A", idRows(0, 10)); err != nil {
			t.Fatal(err)
		}
		if err := e.mgr.Checkpoint(); err != nil {
			t.Fatal(err)
		}

		pub, err := e.insertTail("A", idRows(10, 10))
		if err != nil {
			t.Fatalf("publish: %v", err)
		}
		tab, _ := e.cat.Get("A")
		late := tab.Tails[len(tab.Tails)-1][0].Meta
		if err := e.Compact("A"); err != nil {
			t.Fatal(err)
		}
		if err := e.mgr.Checkpoint(); err != nil { // frees the late tail's extent
			t.Fatal(err)
		}
		reused := false
		bRows := 0
		for !reused && bRows < 200 {
			if err := e.Insert("B", idRows(bRows, 10)); err != nil {
				t.Fatal(err)
			}
			bRows += 10
			b, _ := e.cat.Get("B")
			m := b.Tails[len(b.Tails)-1][0].Meta
			reused = m.ExtentStart < late.ExtentStart+pager.PageID(late.ExtentPages) &&
				late.ExtentStart < m.ExtentStart+pager.PageID(m.ExtentPages)
		}
		if !reused {
			t.Fatalf("no insert into B reused the late tail's extent [%d,+%d)", late.ExtentStart, late.ExtentPages)
		}
		record := catalog.EncodeTailAppend("A", pub.batch, pub.rows, pub.streams)
		if err := e.mgr.Commit(pub.id, record); err != nil {
			t.Fatal(err)
		}

		// Torn crashes draw a prefix per write: check several.
		tries := 1
		if mode == vfs.CrashTorn {
			tries = 8
		}
		for range tries {
			snap := vfs.NewFaultFromImages(1, fs.SnapshotCrash(mode))
			checkInterleaved(t, openDurable(t, snap), mode, bRows)
		}
	}
}

// checkInterleaved verifies one recovered store of
// TestLateTailRecordAfterFoldFreeAndReuse.
func checkInterleaved(t *testing.T, back *Engine, mode vfs.CrashMode, bRows int) {
	t.Helper()
	for name, want := range map[string]int{"A": 20, "B": bRows} {
		cur, err := back.Scan(name, ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int64]int)
		for _, r := range drainBatches(t, cur) {
			seen[r[0].Int()]++
		}
		cur.Close()
		for id := range want {
			if seen[int64(id)] != 1 {
				t.Errorf("mode %v: table %s: row %d recovered %d times, want once", mode, name, id, seen[int64(id)])
			}
		}
		if len(seen) != want {
			t.Errorf("mode %v: table %s: %d distinct rows, want %d", mode, name, len(seen), want)
		}
	}
	if rep, err := back.CheckIntegrity(); err != nil || !rep.OK() {
		t.Errorf("mode %v: integrity: %v %v", mode, err, rep.Issues)
	}
}
