package rodentstore

// Fault-FS tests of the one fold: an eager AlterLayout that fails leaves the
// table untouched, a power cut anywhere inside one recovers to the old
// layout or the new one (never the new expression over the old bytes), and
// index trees reclaimed by a flip leak under a crash but never corrupt.

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"rodentstore/internal/vfs"
)

// scanP returns column p of T under the given order.
func scanP(t *testing.T, db *DB, orderBy string) []string {
	t.Helper()
	cur, err := db.Scan("T", Query{Fields: []string{"p"}, OrderBy: orderBy})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	rows, err := cur.All()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r[0].Str()
	}
	return out
}

func TestFailedEagerAlterLeavesTableUntouched(t *testing.T) {
	fs := vfs.NewFault(11)
	db := faultDB(t, fs)
	loadRows(t, db, 200)
	// A damaged tail makes the fold's read-back fail after the new layout
	// has been validated and accepted.
	corruptTailExtent(t, db, fs)
	before, err := db.cat.Get("T")
	if err != nil {
		t.Fatal(err)
	}

	if err := db.AlterLayout("T", "orderby[p](T)", true); err == nil {
		t.Fatal("eager alter over a corrupt extent succeeded")
	}
	after, err := db.cat.Get("T")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("failed eager alter changed the record: layout %q → %q, %d → %d rows",
			before.LayoutExpr, after.LayoutExpr, before.RowCount, after.RowCount)
	}
	if orders, _ := db.OrderList("T"); len(orders) != 0 {
		t.Fatalf("table advertises orders %v it was never rendered in", orders)
	}
}

// durableFaultDB is faultDB with the write-ahead log in the loop.
func durableFaultDB(t *testing.T, fs *vfs.Fault) *DB {
	t.Helper()
	return faultDBWith(t, &Options{FS: fs, DurableInserts: true})
}

// atEveryKillPoint runs op with a power cut simulated at each write and sync
// it issues, handing every recovered snapshot to check.
func atEveryKillPoint(t *testing.T, fs *vfs.Fault, op func() error, check func(kill int, db *DB)) {
	t.Helper()
	kill := 0
	fs.OnOp = func(o vfs.Op) {
		if o.Kind != vfs.OpWrite && o.Kind != vfs.OpSync {
			return
		}
		kill++
		mode := vfs.CrashDrop
		if kill%2 == 0 {
			mode = vfs.CrashKeep
		}
		snap := vfs.NewFaultFromImages(1, fs.SnapshotCrash(mode))
		db, err := OpenWithOptions(faultDBPath, &Options{FS: snap, DurableInserts: true})
		if err != nil {
			t.Errorf("kill point %d (%v %s): recovery failed: %v", kill, o.Kind, o.Path, err)
			return
		}
		defer db.Close()
		check(kill, db)
	}
	err := op()
	fs.OnOp = nil
	if err != nil {
		t.Fatal(err)
	}
	if kill == 0 {
		t.Fatal("no kill points exercised")
	}
}

func TestEagerAlterIsCrashAtomic(t *testing.T) {
	fs := vfs.NewFault(12)
	db := durableFaultDB(t, fs)
	// Payloads whose sort order is nothing like insert order.
	var rows []Row
	for i := 0; i < 120; i++ {
		rows = append(rows, Row{IntValue(int64(i)), StringValue(fmt.Sprintf("p-%03d", (i*37)%120))})
	}
	if err := db.Load("T", rows[:100]); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("T", rows[100:]); err != nil { // a tail rides along
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	const oldExpr, newExpr = "rows(T)", "orderby[p](T)"
	inserted := scanP(t, db, "")
	if sort.StringsAreSorted(inserted) {
		t.Fatal("insert order is already sorted; the test would prove nothing")
	}
	sorted := append([]string(nil), inserted...)
	sort.Strings(sorted)

	olds, news := 0, 0
	atEveryKillPoint(t, fs, func() error { return db.AlterLayout("T", newExpr, true) }, func(kill int, snap *DB) {
		expr, err := snap.LayoutOf("T")
		if err != nil {
			t.Errorf("kill point %d: %v", kill, err)
			return
		}
		stored := scanP(t, snap, "")
		switch expr {
		case oldExpr:
			olds++
			if !reflect.DeepEqual(stored, inserted) {
				t.Errorf("kill point %d: old expression over rows that are not in insert order", kill)
			}
		case newExpr:
			news++
			if !reflect.DeepEqual(stored, sorted) {
				t.Errorf("kill point %d: new expression %s over bytes not sorted by p", kill, newExpr)
			}
		default:
			t.Errorf("kill point %d: layout %q is neither old nor new", kill, expr)
		}
		// Whatever the expression promises, an ordered scan must deliver.
		if got := scanP(t, snap, "p"); !reflect.DeepEqual(got, sorted) {
			t.Errorf("kill point %d (%s): scan ordered by p is not sorted", kill, expr)
		}
	})
	if olds == 0 || news == 0 {
		t.Fatalf("kill points recovered %d old and %d new states; want both sides of the flip", olds, news)
	}
	if got := scanP(t, db, ""); !reflect.DeepEqual(got, sorted) {
		t.Fatal("live table is not sorted after the alter")
	}
}

// TestReclaimedIndexTreeLeaksNeverCorrupts: in durable mode a dropped tree's
// pages are freed only after the catalog that stopped naming it is durable.
// A power cut anywhere in DropIndex or in the inserts and fold that follow
// (which reuse freed pages) recovers a store whose index, if still listed,
// still answers correctly.
func TestReclaimedIndexTreeLeaksNeverCorrupts(t *testing.T) {
	fs := vfs.NewFault(13)
	db := durableFaultDB(t, fs)
	loadRows(t, db, 2000)
	if err := db.CreateIndex("T", "id"); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	next := int64(10_000)
	op := func() error {
		if err := db.DropIndex("T", "id"); err != nil {
			return err
		}
		for b := 0; b < 4; b++ {
			var batch []Row
			for i := 0; i < 50; i++ {
				batch = append(batch, Row{IntValue(next), StringValue(fmt.Sprintf("p-%d", next))})
				next++
			}
			if err := db.Insert("T", batch); err != nil {
				return err
			}
		}
		return db.Reorganize("T")
	}
	atEveryKillPoint(t, fs, op, func(kill int, snap *DB) {
		rep, err := snap.CheckIntegrity()
		if err != nil || !rep.OK() {
			t.Errorf("kill point %d: integrity: %v %v", kill, err, rep.Issues)
			return
		}
		n, err := snap.RowCount("T")
		if err != nil || n < 2000 || (n-2000)%50 != 0 {
			t.Errorf("kill point %d: %d rows (err %v), want 2000 plus whole batches", kill, n, err)
		}
		if idx, _ := snap.Indexes("T"); len(idx) == 0 {
			return // the drop committed
		}
		cur, err := snap.IndexScan("T", Query{Where: "id >= 700 and id < 710"}, "id")
		if err != nil {
			t.Errorf("kill point %d: index still listed but unusable: %v", kill, err)
			return
		}
		defer cur.Close()
		if rows, err := cur.All(); err != nil || len(rows) != 10 {
			t.Errorf("kill point %d: index lookup returned %d rows (err %v), want 10", kill, len(rows), err)
		}
	})
	base := db.file.NumPages()
	// The live store got its pages back: a second index fits in what the
	// first one and the superseded rendering returned.
	if err := db.CreateIndex("T", "id"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropIndex("T", "id"); err != nil {
		t.Fatal(err)
	}
	if got := db.file.NumPages(); got != base {
		t.Errorf("allocated pages after another create/drop: %d, want %d", got, base)
	}
}
