package rodentstore

// End-to-end corruption tests: deliberately damage an extent on the fault
// FS, then verify the three degradation layers — a plain scan fails with a
// typed, extent-addressed error; a Quarantine scan skips exactly the damaged
// extent and reports it; CheckIntegrity names it.

import (
	"errors"
	"fmt"
	"testing"

	"rodentstore/internal/pager"
	"rodentstore/internal/segment"
	"rodentstore/internal/vfs"
)

const faultDBPath = "fault.rdnt"

func faultDB(t *testing.T, fs *vfs.Fault) *DB {
	t.Helper()
	return faultDBWith(t, &Options{FS: fs})
}

// faultDBWith creates the two-column table T on opts.FS.
func faultDBWith(t *testing.T, opts *Options) *DB {
	t.Helper()
	db, err := Create(faultDBPath, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.CreateTable("T", []Field{
		{Name: "id", Type: Int},
		{Name: "p", Type: String},
	}, "rows(T)"); err != nil {
		t.Fatal(err)
	}
	return db
}

func loadRows(t *testing.T, db *DB, n int) {
	t.Helper()
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{IntValue(int64(i)), StringValue(fmt.Sprintf("p-%d", i))}
	}
	if err := db.Load("T", rows); err != nil {
		t.Fatal(err)
	}
}

// corruptTailExtent flips bytes inside the first tail batch's extent and
// returns it. Tails keep the main rendering intact, so the scan has healthy
// extents on both sides of the damage.
func corruptTailExtent(t *testing.T, db *DB, fs *vfs.Fault) pager.Extent {
	t.Helper()
	if err := db.Insert("T", []Row{
		{IntValue(10_000), StringValue("tail-a")},
		{IntValue(10_001), StringValue("tail-b")},
	}); err != nil {
		t.Fatal(err)
	}
	tab, err := db.cat.Get("T")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Tails) == 0 || len(tab.Tails[0]) == 0 {
		t.Fatal("expected a tail batch")
	}
	meta := tab.Tails[0][0].Meta
	ext := pager.Extent{Start: meta.ExtentStart, Count: meta.ExtentPages}
	off := int64(ext.Start) * int64(db.PageSize())
	if n := fs.Corrupt(faultDBPath, off+32, 64); n != 64 {
		t.Fatalf("corrupted %d bytes, want 64", n)
	}
	return ext
}

func TestScanFailsTypedOnCorruptExtent(t *testing.T) {
	fs := vfs.NewFault(7)
	db := faultDB(t, fs)
	loadRows(t, db, 200)
	ext := corruptTailExtent(t, db, fs)

	cur, err := db.Scan("T", Query{})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	_, err = cur.All()
	if err == nil {
		t.Fatal("scan over corrupt extent succeeded")
	}
	var ce *segment.ErrCorruptExtent
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not ErrCorruptExtent", err)
	}
	if ce.Start != ext.Start {
		t.Fatalf("error names extent %d, corrupted %d", ce.Start, ext.Start)
	}
}

func TestQuarantineSkipsCorruptExtent(t *testing.T) {
	fs := vfs.NewFault(7)
	db := faultDB(t, fs)
	loadRows(t, db, 200)
	ext := corruptTailExtent(t, db, fs)

	for _, parallel := range []bool{false, true} {
		cur, err := db.Scan("T", Query{Quarantine: true, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := cur.All()
		if err != nil {
			t.Fatalf("parallel=%v: quarantined scan failed: %v", parallel, err)
		}
		if len(rows) != 200 {
			t.Fatalf("parallel=%v: got %d rows, want the 200 healthy ones", parallel, len(rows))
		}
		rep := cur.Report()
		if len(rep.Skipped) != 1 {
			t.Fatalf("parallel=%v: report lists %d extents, want 1", parallel, len(rep.Skipped))
		}
		sk := rep.Skipped[0]
		if sk.Extent.Start != ext.Start {
			t.Fatalf("parallel=%v: skipped extent %d, corrupted %d", parallel, sk.Extent.Start, ext.Start)
		}
		if sk.Rows != 2 {
			t.Fatalf("parallel=%v: skipped %d rows, corrupted batch had 2", parallel, sk.Rows)
		}
		if sk.Err == nil {
			t.Fatalf("parallel=%v: skipped extent carries no error", parallel)
		}
		cur.Close()
	}
}

func TestCheckIntegrityReportsCorruptExtent(t *testing.T) {
	fs := vfs.NewFault(7)
	db := faultDB(t, fs)
	loadRows(t, db, 200)

	rep, err := db.CheckIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean store reports issues: %v", rep.Issues)
	}
	if rep.Tables != 1 || rep.Blocks == 0 {
		t.Fatalf("walk covered %d tables, %d blocks", rep.Tables, rep.Blocks)
	}

	ext := corruptTailExtent(t, db, fs)
	rep, err = db.CheckIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("corrupt store reports no issues")
	}
	found := false
	for _, issue := range rep.Issues {
		if issue.Extent.Start == ext.Start {
			found = true
			var ce *segment.ErrCorruptExtent
			if !errors.As(issue.Err, &ce) {
				t.Fatalf("issue %v does not carry ErrCorruptExtent", issue)
			}
		}
	}
	if !found {
		t.Fatalf("no issue names extent %d: %v", ext.Start, rep.Issues)
	}
}

func TestQuarantineRetriesTransientErrors(t *testing.T) {
	fs := vfs.NewFault(7)
	db := faultDB(t, fs)
	loadRows(t, db, 200)

	// Fail the first read the scan issues: the block load errors once, the
	// quarantine retry succeeds, and the scan returns everything with an
	// empty report.
	failed := false
	fs.Inject = func(op vfs.Op) vfs.Decision {
		if op.Kind == vfs.OpRead && !failed {
			failed = true
			return vfs.ShortRead
		}
		return vfs.OK
	}
	defer func() { fs.Inject = nil }()

	cur, err := db.Scan("T", Query{Quarantine: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	rows, err := cur.All()
	if err != nil {
		t.Fatalf("scan with transient faults failed: %v", err)
	}
	if len(rows) != 200 {
		t.Fatalf("got %d rows, want 200", len(rows))
	}
	if rep := cur.Report(); len(rep.Skipped) != 0 {
		t.Fatalf("transient errors were quarantined: %v", rep.Skipped)
	}
}
