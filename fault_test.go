package rodentstore

// End-to-end corruption tests: deliberately damage an extent on the fault
// FS, then verify the three degradation layers — a plain scan fails with a
// typed, extent-addressed error; a Quarantine scan skips exactly the damaged
// extent and reports it; CheckIntegrity names it.

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

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

	cur, err := db.Scan("T", Query{Quarantine: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	rows, err := cur.All()
	if err != nil {
		t.Fatalf("quarantined scan failed: %v", err)
	}
	if len(rows) != 200 {
		t.Fatalf("got %d rows, want the 200 healthy ones", len(rows))
	}
	rep := cur.Report()
	if len(rep.Skipped) != 1 {
		t.Fatalf("report lists %d extents, want 1", len(rep.Skipped))
	}
	sk := rep.Skipped[0]
	if sk.Extent.Start != ext.Start {
		t.Fatalf("skipped extent %d, corrupted %d", sk.Extent.Start, ext.Start)
	}
	if sk.Rows != 2 {
		t.Fatalf("skipped %d rows, corrupted batch had 2", sk.Rows)
	}
	if sk.Err == nil {
		t.Fatal("skipped extent carries no error")
	}

	// A grouped aggregate over the same damage folds the 200 healthy rows
	// once each and reports the one extent.
	groups, count, sum, rep := quarantinedGroupTotals(t, db)
	if groups != 200 || count != 200 || sum != 199*200/2 {
		t.Fatalf("aggregate: %d groups, count %d, sum(id) %d; want 200, 200, %d", groups, count, sum, 199*200/2)
	}
	if len(rep.Skipped) != 1 || rep.Skipped[0].Extent.Start != ext.Start {
		t.Fatalf("aggregate report %v, want extent %d alone", rep.Skipped, ext.Start)
	}
}

// quarantinedGroupTotals runs count and sum(id) grouped by p over T with
// Quarantine on, and returns the number of groups, the counts and sums
// added over them, and the scan's report.
func quarantinedGroupTotals(t *testing.T, db *DB) (groups int, count, sum int64, rep ScanReport) {
	t.Helper()
	cur, err := db.Scan("T", Query{Quarantine: true, Aggregate: &AggregateSpec{
		GroupBy: []string{"p"},
		Aggs:    []string{"count", "sum(id)"},
	}})
	if err != nil {
		t.Fatalf("quarantined aggregate failed: %v", err)
	}
	defer cur.Close()
	rows, err := cur.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		count += r[1].Int()
		sum += r[2].Int()
	}
	return len(rows), count, sum, cur.Report()
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

	// The same transient failure under a grouped aggregate: the retried
	// block folds once, so no group and no count is added twice.
	failed = false
	groups, count, sum, rep := quarantinedGroupTotals(t, db)
	if !failed {
		t.Fatal("the aggregate issued no read to fail")
	}
	if groups != 200 || count != 200 || sum != 199*200/2 {
		t.Fatalf("aggregate: %d groups, count %d, sum(id) %d; want 200, 200, %d", groups, count, sum, 199*200/2)
	}
	if len(rep.Skipped) != 0 {
		t.Fatalf("transient errors were quarantined: %v", rep.Skipped)
	}
}

// TestInvalidateCacheDuringMiss drops the buffer pool while a scan's page
// read is in flight: InvalidateCache succeeds, the scan completes, and the
// next scan reads cold.
func TestInvalidateCacheDuringMiss(t *testing.T) {
	fs := vfs.NewFault(7)
	var armed atomic.Bool
	blocked, release := make(chan struct{}), make(chan struct{})
	fs.Inject = func(op vfs.Op) vfs.Decision {
		if op.Kind == vfs.OpRead && op.Path == faultDBPath && armed.CompareAndSwap(true, false) {
			close(blocked)
			<-release
		}
		return vfs.OK
	}
	db := faultDBWith(t, &Options{FS: fs, CachePages: 64})
	loadRows(t, db, 200)
	scan := func() error {
		cur, err := db.Scan("T", Query{})
		if err != nil {
			return err
		}
		defer cur.Close()
		rows, err := cur.All()
		if err == nil && len(rows) != 200 {
			err = fmt.Errorf("got %d rows, want 200", len(rows))
		}
		return err
	}

	armed.Store(true)
	scanned := make(chan error, 1)
	go func() { scanned <- scan() }()
	<-blocked
	// The read stays blocked until after InvalidateCache has started.
	time.AfterFunc(50*time.Millisecond, func() { close(release) })
	if err := db.InvalidateCache(); err != nil {
		t.Fatalf("InvalidateCache with a read in flight: %v", err)
	}
	if err := <-scanned; err != nil {
		t.Fatal(err)
	}

	db.InvalidateCache()
	db.ResetIOStats()
	if err := scan(); err != nil {
		t.Fatal(err)
	}
	if db.IOStats().PageReads == 0 {
		t.Fatal("scan after InvalidateCache read no pages")
	}
}
