package rodentstore

// Free space is derived from the catalog: the page file persists no free
// list, only a catalog flush writes its one-sector header, and what a crash
// strands is reused after the next open.

import (
	"errors"
	"sync/atomic"
	"testing"

	"rodentstore/internal/pager"
	"rodentstore/internal/vfs"
)

// TestHeaderWrittenOnlyByCatalogFlush counts page-file header writes through
// durable inserts, Compacts and checkpoints: each is one sector and comes
// right after the sync of the catalog flush that issues it. Allocations,
// frees and checkpoint syncs write none.
func TestHeaderWrittenOnlyByCatalogFlush(t *testing.T) {
	fs := vfs.NewFault(41)
	db := faultDB(t, fs)
	insert, _, _ := levelledL(t, db)
	var ops []vfs.Op
	fs.OnOp = func(op vfs.Op) {
		if op.Path == faultDBPath && (op.Kind == vfs.OpWrite || op.Kind == vfs.OpSync) {
			ops = append(ops, op)
		}
	}
	const inserts = 64
	for i := range inserts {
		if err := insert(); err != nil {
			t.Fatal(err)
		}
		if i%8 == 7 {
			if err := db.Compact("L"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fs.OnOp = nil
	headers := 0
	for i, op := range ops {
		if op.Kind != vfs.OpWrite || op.Off != 0 {
			continue
		}
		headers++
		if op.Len > vfs.SectorSize {
			t.Errorf("header write %d is %d bytes, more than one %d-byte sector", headers, op.Len, vfs.SectorSize)
		}
		if i == 0 || ops[i-1].Kind != vfs.OpSync {
			t.Errorf("header write %d does not follow a catalog flush's sync", headers)
		}
	}
	if headers == 0 || headers*4 > inserts {
		t.Errorf("%d header writes over %d durable inserts, want at least one (the checkpoint's flush) and far fewer than inserts", headers, inserts)
	}
}

// TestCrashStrandedPagesAreReused power-cuts after a Compact whose runs no
// checkpoint made durable, written into pages a dropped table freed. The
// reopened store owns exactly what its durable catalog names, every other
// page below the cursor is free, and allocations reuse the stranded runs'
// pages before the file grows.
func TestCrashStrandedPagesAreReused(t *testing.T) {
	fs := vfs.NewFault(42)
	db := faultDB(t, fs)
	loadRows(t, db, 2000) // T: pages the drop below frees
	insert, _, acked := levelledL(t, db)
	for range 8 {
		if err := insert(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DropTable("T"); err != nil { // checkpoints, then frees T's pages
		t.Fatal(err)
	}
	if err := db.Compact("L"); err != nil { // buffered: no checkpoint follows
		t.Fatal(err)
	}
	stranded := make(map[pager.PageID]bool)
	tab, err := db.cat.Get("L")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Runs {
		for _, s := range r.Segments {
			for i := range s.Meta.ExtentPages {
				stranded[s.Meta.ExtentStart+pager.PageID(i)] = true
			}
		}
	}
	if len(stranded) == 0 {
		t.Fatal("Compact wrote no run")
	}
	fs.Crash(vfs.CrashKeep) // the runs' pages reached disk; no header names them

	back, err := OpenWithOptions(faultDBPath, &Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { back.Close() })
	if n, err := back.RowCount("L"); err != nil || n != *acked {
		t.Fatalf("RowCount %d (err %v), want %d", n, err, *acked)
	}
	owned := back.file.MetaGet(1) // the catalog's own extent
	for _, name := range back.Tables() {
		tab, err := back.cat.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range tab.Parts() {
			for _, s := range p.Segments {
				owned += s.Meta.ExtentPages
			}
		}
	}
	if got := back.file.NumPages(); got != owned {
		t.Fatalf("NumPages %d after reopen, want the %d pages the durable catalog owns", got, owned)
	}
	rep, err := back.CheckIntegrity()
	if err != nil || !rep.OK() {
		t.Fatalf("integrity: %v %v", err, rep.Issues)
	}
	if rep.OwnedPages != owned {
		t.Errorf("CheckIntegrity counts %d owned pages, want %d", rep.OwnedPages, owned)
	}
	cursor := pager.PageID(1 + rep.OwnedPages + rep.FreePages) // owned and free tile [1, cursor)
	for range rep.FreePages {
		id, err := back.file.AllocateRun(1)
		if err != nil {
			t.Fatal(err)
		}
		if id >= cursor {
			t.Fatalf("allocation at page %d, past the cursor %d, with free pages left to reuse", id, cursor)
		}
		delete(stranded, id)
	}
	if len(stranded) > 0 {
		t.Errorf("%d pages of the stranded runs were not reused", len(stranded))
	}
}

// TestFailedHeaderWriteKeepsCatalogExtent fails the header write of a
// durable checkpoint's catalog flush, then runs two more checkpoints, each
// after an insert so that it flushes. The flush that failed freed nothing
// and queued nothing; the catalog's live extent never reaches free space,
// so no page is both owned and free, and the store reads back every row.
func TestFailedHeaderWriteKeepsCatalogExtent(t *testing.T) {
	fs := vfs.NewFault(43)
	db := faultDB(t, fs)
	insert, _, acked := levelledL(t, db)
	var armed atomic.Bool
	fs.Inject = func(op vfs.Op) vfs.Decision {
		if op.Kind == vfs.OpWrite && op.Path == faultDBPath && op.Off == 0 && armed.CompareAndSwap(true, false) {
			return vfs.Fail
		}
		return vfs.OK
	}
	for round := range 3 {
		if err := insert(); err != nil {
			t.Fatal(err)
		}
		armed.Store(round == 0)
		err := db.Checkpoint()
		if round == 0 && (!errors.Is(err, vfs.ErrInjected) || armed.Load()) {
			t.Fatalf("checkpoint over a failing header write: %v", err)
		}
		if round > 0 && err != nil {
			t.Fatalf("checkpoint %d: %v", round, err)
		}
	}
	rep, err := db.CheckIntegrity()
	if err != nil || !rep.OK() {
		t.Fatalf("integrity: %v %v", err, rep.Issues)
	}
	if n, err := db.RowCount("L"); err != nil || n != *acked {
		t.Fatalf("RowCount %d (err %v), want %d", n, err, *acked)
	}
}
