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

	"rodentstore/internal/pager"
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

// dropKeep cycles the two crash modes that keep or lose every unsynced write.
var dropKeep = []vfs.CrashMode{vfs.CrashDrop, vfs.CrashKeep}

// atEveryKillPoint runs op with a power cut simulated at each write and sync
// it issues, cycling through modes, and hands every recovered snapshot to
// check.
func atEveryKillPoint(t *testing.T, fs *vfs.Fault, modes []vfs.CrashMode, op func() error, check func(kill int, db *DB)) {
	t.Helper()
	kill := 0
	fs.OnOp = func(o vfs.Op) {
		if o.Kind != vfs.OpWrite && o.Kind != vfs.OpSync {
			return
		}
		kill++
		mode := modes[kill%len(modes)]
		snap := vfs.NewFaultFromImages(1, fs.SnapshotCrash(mode))
		db, err := OpenWithOptions(faultDBPath, &Options{FS: snap})
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
		t.Fatal("no kill point exercised")
	}
}

func TestEagerAlterIsCrashAtomic(t *testing.T) {
	fs := vfs.NewFault(12)
	db := faultDB(t, fs)
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
	atEveryKillPoint(t, fs, dropKeep, func() error { return db.AlterLayout("T", newExpr, true) }, func(kill int, snap *DB) {
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

// TestReclaimedIndexTreeLeaksNeverCorrupts: a dropped tree's
// pages are freed only after the catalog that stopped naming it is durable.
// A power cut anywhere in DropIndex or in the inserts and fold that follow
// (which reuse freed pages) recovers a store whose index, if still listed,
// still answers correctly.
func TestReclaimedIndexTreeLeaksNeverCorrupts(t *testing.T) {
	fs := vfs.NewFault(13)
	db := faultDB(t, fs)
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
	atEveryKillPoint(t, fs, dropKeep, op, func(kill int, snap *DB) {
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

// levelledL adds the levelled table L beside T and checkpoints, and returns
// an insert that appends the next 16 consecutive ids to it. next is the id
// the next batch starts at; acked is one past the last acknowledged id.
func levelledL(t *testing.T, db *DB) (insert func() error, next, acked *int64) {
	t.Helper()
	if err := db.CreateTable("L", []Field{{Name: "id", Type: Int}, {Name: "p", Type: String}},
		"leveled[2](chunk[16](rows(L)))"); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	next, acked = new(int64), new(int64)
	insert = func() error {
		batch := make([]Row, 16)
		for i := range batch {
			batch[i] = Row{IntValue(*next), StringValue(fmt.Sprintf("p-%d", *next))}
			*next++
		}
		if err := db.Insert("L", batch); err != nil {
			return err
		}
		*acked = *next
		return nil
	}
	return insert, next, acked
}

// runPages maps each run of L to its pages, by first extent.
func runPages(t *testing.T, db *DB) map[uint64]uint64 {
	t.Helper()
	tab, err := db.cat.Get("L")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64]uint64)
	for _, r := range tab.Runs {
		for _, seg := range r.Segments {
			out[uint64(r.Segments[0].Meta.ExtentStart)] += seg.Meta.ExtentPages
		}
	}
	return out
}

// partPages lists every page of L's parts.
func partPages(t *testing.T, db *DB) map[pager.PageID]bool {
	t.Helper()
	tab, err := db.cat.Get("L")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[pager.PageID]bool)
	for _, p := range tab.Parts() {
		for _, seg := range p.Segments {
			for i := range seg.Meta.ExtentPages {
				out[seg.Meta.ExtentStart+pager.PageID(i)] = true
			}
		}
	}
	return out
}

// TestCompactLeavesItsDurabilityToACheckpoint: with a log, Compact publishes
// its runs in memory and neither syncs nor frees, so everything they
// replaced stays allocated until the next checkpoint frees it.
func TestCompactLeavesItsDurabilityToACheckpoint(t *testing.T) {
	fs := vfs.NewFault(14)
	db := faultDB(t, fs)
	insert, _, _ := levelledL(t, db)
	var old map[pager.PageID]bool // L's pages while a Compact runs
	freed := 0
	db.file.OnInvalidate(func(start pager.PageID, n uint64) {
		for i := range n {
			if old[start+pager.PageID(i)] {
				freed++ // nothing writes into a stored part: this is a free
				return
			}
		}
	})
	compact := func(round int) {
		t.Helper()
		for range 4 {
			if err := insert(); err != nil {
				t.Fatal(err)
			}
		}
		before, pages := runPages(t, db), db.file.NumPages()
		syncs := 0
		fs.OnOp = func(o vfs.Op) {
			if o.Kind == vfs.OpSync {
				syncs++
			}
		}
		old, freed = partPages(t, db), 0
		err := db.Compact("L")
		fs.OnOp, old = nil, nil
		if err != nil {
			t.Fatal(err)
		}
		if syncs != 0 || freed != 0 {
			t.Errorf("round %d: Compact issued %d syncs and freed %d parts, want none", round, syncs, freed)
		}
		want := pages
		for id, n := range runPages(t, db) {
			if _, ok := before[id]; !ok {
				want += n
			}
		}
		if got := db.file.NumPages(); got < want {
			t.Errorf("round %d: allocated pages %d after Compact, want at least %d (the new runs beside what they replaced)", round, got, want)
		}
	}
	checkpoint := func() {
		t.Helper()
		withGarbage := db.file.NumPages()
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if got := db.file.NumPages(); got >= withGarbage {
			t.Errorf("allocated pages %d after the checkpoint, %d before: the queued frees did not run", got, withGarbage)
		}
	}
	compact(1)
	compact(2) // a cascade: level 1 fills and folds into level 2
	checkpoint()
	compact(3)
	compact(4)
	checkpoint()
	if n, err := db.RowCount("L"); err != nil || n != 4*64 {
		t.Errorf("RowCount %d (err %v), want %d", n, err, 4*64)
	}
}

// TestBufferedCompactRecoversEveryRowOnce power-cuts at every write and sync
// of inserts, Compacts, a DDL whose full catalog flush persists a run while
// the log still holds the deltas of the tails it absorbed, and the checkpoint
// that finally frees what the runs replaced. Every recovery must hold each
// acknowledged row exactly once — never the run and its tails both — the
// in-flight batch whole or not at all, and an intact store: the replaced
// parts leak, never corrupt. The torn case keeps a random prefix of each
// unsynced write, so a header can reach disk without the run pages it names
// unless the flush that writes it syncs them first.
func TestBufferedCompactRecoversEveryRowOnce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		modes []vfs.CrashMode
	}{
		{"drop-keep", dropKeep},
		{"torn", []vfs.CrashMode{vfs.CrashTorn}},
	} {
		t.Run(tc.name, func(t *testing.T) { bufferedCompactAtEveryKillPoint(t, tc.modes) })
	}
}

func bufferedCompactAtEveryKillPoint(t *testing.T, modes []vfs.CrashMode) {
	fs := vfs.NewFault(15)
	db := faultDB(t, fs)
	insert, next, acked := levelledL(t, db)
	op := func() error {
		for round := 0; round < 3; round++ {
			for range 4 {
				if err := insert(); err != nil {
					return err
				}
			}
			if err := db.Compact("L"); err != nil {
				return err
			}
			if round == 0 {
				if err := db.CreateTable("M", []Field{{Name: "id", Type: Int}}, "rows(M)"); err != nil {
					return err
				}
			}
		}
		for range 2 {
			if err := insert(); err != nil {
				return err
			}
		}
		return db.Checkpoint()
	}
	atEveryKillPoint(t, fs, modes, op, func(kill int, snap *DB) {
		cur, err := snap.Scan("L", Query{Fields: []string{"id"}})
		if err != nil {
			t.Errorf("kill point %d: %v", kill, err)
			return
		}
		defer cur.Close()
		rows, err := cur.All()
		if err != nil {
			t.Errorf("kill point %d: %v", kill, err)
			return
		}
		seen := make(map[int64]bool, len(rows))
		for _, r := range rows {
			id := r[0].Int()
			if seen[id] {
				t.Errorf("kill point %d: row %d recovered twice", kill, id)
				return
			}
			seen[id] = true
		}
		n := int64(len(seen))
		if n != *acked && n != *next {
			t.Errorf("kill point %d: %d rows, want the %d acknowledged (or %d with the batch in flight)", kill, n, *acked, *next)
			return
		}
		for id := int64(0); id < n; id++ {
			if !seen[id] {
				t.Errorf("kill point %d: row %d lost", kill, id)
				return
			}
		}
		if rep, err := snap.CheckIntegrity(); err != nil || !rep.OK() {
			t.Errorf("kill point %d: integrity: %v %v", kill, err, rep.Issues)
		}
	})
}

// TestTornCatalogFlushRecovers power-cuts, tearing every unsynced write, at
// each write and sync of a Load into an empty table and the insert after it.
// A catalog flush with nothing buffered before it (this Load's) must still
// sync the catalog extent and the data pages it names before the header
// write that publishes them: every recovery opens and scans 0, 1,900 or
// 2,000 rows.
func TestTornCatalogFlushRecovers(t *testing.T) {
	for seed := int64(21); seed <= 25; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			fs := vfs.NewFault(seed)
			db := faultDB(t, fs)
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			rows := make([]Row, 2000)
			for i := range rows {
				rows[i] = Row{IntValue(int64(i)), StringValue(fmt.Sprintf("p-%d", i))}
			}
			op := func() error {
				if err := db.Load("T", rows[:1900]); err != nil {
					return err
				}
				return db.Insert("T", rows[1900:])
			}
			atEveryKillPoint(t, fs, []vfs.CrashMode{vfs.CrashTorn}, op, func(kill int, snap *DB) {
				cur, err := snap.Scan("T", Query{Fields: []string{"id"}})
				if err != nil {
					t.Errorf("kill point %d: %v", kill, err)
					return
				}
				defer cur.Close()
				got, err := cur.All()
				if n := len(got); err != nil || (n != 0 && n != 1900 && n != 2000) {
					t.Errorf("kill point %d: %d rows (err %v), want 0, 1900 or 2000", kill, n, err)
				}
			})
		})
	}
}
