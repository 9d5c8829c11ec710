package table

import (
	"errors"
	"testing"

	"rodentstore/internal/pager"
	"rodentstore/internal/segment"
	"rodentstore/internal/vfs"
)

// TestScanReadsEachPageOnce pins the fetch path's access pattern on real op
// counts: over the fault-injection file system, a serial full scan reads
// every table page exactly once, in whole page-aligned pages, with one ReadAt
// per block that needs a page the reader's one-page lookbehind lacks (blocks
// that share a boundary page are served by the lookbehind). The pager's page
// reads and seeks, what the paper-figure accounting measures, are pinned to
// what a ReadPage per page counted.
func TestScanReadsEachPageOnce(t *testing.T) {
	const pageSize = 1024
	fs := vfs.NewFault(42)
	f, err := pager.CreateAt(fs, "db.rdnt", pageSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	e := engineOn(t, fs, "db.rdnt", f)
	if err := e.Create("T", tracesSchema(), "chunk[128](rows(T))"); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("T", traceRows(4096)); err != nil {
		t.Fatal(err)
	}
	tab, err := e.cat.Get("T")
	if err != nil {
		t.Fatal(err)
	}
	meta := tab.Segments[0].Meta
	if len(meta.Blocks) < 16 {
		t.Fatalf("want >= 16 blocks so several share boundary pages, got %d", len(meta.Blocks))
	}

	reads := make(map[int64]int) // page file offset -> times read
	readAts := 0
	fs.OnOp = func(op vfs.Op) {
		if op.Kind != vfs.OpRead {
			return
		}
		readAts++
		if op.Off%pageSize != 0 || op.Len == 0 || op.Len%pageSize != 0 {
			t.Errorf("scan issued a %d-byte read at %d, want whole page-aligned pages", op.Len, op.Off)
		}
		for off := op.Off; off < op.Off+int64(op.Len); off += pageSize {
			reads[off]++
		}
	}
	f.ResetStats()
	cur, err := e.Scan("T", ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := len(drain(t, cur))
	cur.Close()
	fs.OnOp = nil
	if n != 4096 {
		t.Fatalf("scan returned %d rows, want 4096", n)
	}

	payload := uint64(f.PayloadSize())
	npages := (meta.UsedBytes + payload - 1) / payload
	if uint64(len(reads)) != npages {
		t.Fatalf("scan read %d distinct pages, table spans %d", len(reads), npages)
	}
	for p := uint64(0); p < npages; p++ {
		off := int64(uint64(meta.ExtentStart)+p) * pageSize
		if reads[off] != 1 {
			t.Fatalf("page %d of the extent (offset %d) read %d times, want exactly once", p, off, reads[off])
		}
	}
	// A block needs a read unless it lies wholly in the page the previous
	// block ended on.
	fetches, held := 0, int64(-1)
	for _, b := range meta.Blocks {
		first, last := int64(b.Off/payload), int64((b.Off+uint64(b.Len)-1)/payload)
		if first != held || last != held {
			fetches++
		}
		held = last
	}
	if readAts != fetches {
		t.Errorf("scan issued %d ReadAts, want one per block that needs a page the lookbehind lacks (%d of %d blocks)", readAts, fetches, len(meta.Blocks))
	}
	// The page reads and seeks a ReadPage per page counted for this scan.
	if st := f.Stats(); st.PageReads != 122 || st.Seeks != 1 || st.SeekDistance != 0 {
		t.Errorf("scan counted %d page reads, %d seeks, seek distance %d; want 122, 1, 0", st.PageReads, st.Seeks, st.SeekDistance)
	}
}

// TestCorruptPageInsideBlockRead corrupts a middle page of a block that
// spans several pages on a table with no pool in front, so the damage
// surfaces from inside the block's one multi-page read. A plain scan fails
// with ErrCorruptExtent wrapping the pager's *ErrCorruptPage for exactly that
// page; a quarantined scan reports that block alone and returns every other
// row.
func TestCorruptPageInsideBlockRead(t *testing.T) {
	const pageSize = 1024
	fs := vfs.NewFault(42)
	f, err := pager.CreateAt(fs, "db.rdnt", pageSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	e := engineOn(t, fs, "db.rdnt", f)
	if err := e.Create("T", tracesSchema(), "chunk[128](rows(T))"); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("T", traceRows(4096)); err != nil {
		t.Fatal(err)
	}
	tab, err := e.cat.Get("T")
	if err != nil {
		t.Fatal(err)
	}
	meta := tab.Segments[0].Meta
	payload := uint64(f.PayloadSize())
	victim := -1
	var page pager.PageID
	for i, b := range meta.Blocks[len(meta.Blocks)/2:] {
		if first, last := b.Off/payload, (b.Off+uint64(b.Len)-1)/payload; last-first >= 2 {
			victim, page = len(meta.Blocks)/2+i, meta.ExtentStart+pager.PageID(first+1)
			break
		}
	}
	if victim < 0 {
		t.Fatal("no block spans three pages")
	}
	if n := fs.Corrupt("db.rdnt", int64(page)*pageSize+100, 16); n != 16 {
		t.Fatalf("corrupted %d bytes, want 16", n)
	}
	bad := meta.Blocks[victim]

	cur, err := e.Scan("T", ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for err == nil {
		var ok bool
		if _, ok, err = cur.Next(); !ok && err == nil {
			t.Fatal("scan over a corrupt page succeeded")
		}
	}
	cur.Close()
	var ce *segment.ErrCorruptExtent
	var cp *pager.ErrCorruptPage
	if !errors.As(err, &ce) || ce.Start != meta.ExtentStart {
		t.Fatalf("scan error %v, want ErrCorruptExtent for extent %d", err, meta.ExtentStart)
	}
	if !errors.As(err, &cp) || cp.Page != page {
		t.Fatalf("scan error %v, want *pager.ErrCorruptPage for page %d", err, page)
	}

	cur, err = e.Scan("T", ScanOptions{Quarantine: true})
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, cur)
	rep := cur.Report()
	cur.Close()
	if len(rows) != 4096-bad.Rows {
		t.Fatalf("quarantined scan returned %d rows, want %d", len(rows), 4096-bad.Rows)
	}
	for _, r := range rows {
		if ts := r[0].Int(); ts >= bad.RowStart && ts < bad.RowStart+int64(bad.Rows) {
			t.Fatalf("row t=%d of the corrupt block came back", ts)
		}
	}
	if len(rep.Skipped) != 1 {
		t.Fatalf("report lists %d extents, want 1", len(rep.Skipped))
	}
	sk := rep.Skipped[0]
	if sk.Extent.Start != meta.ExtentStart || sk.Blocks != 1 || sk.Rows != int64(bad.Rows) {
		t.Fatalf("report %+v, want block %d alone (%d rows) of extent %d", sk, victim, bad.Rows, meta.ExtentStart)
	}
	if !errors.As(sk.Err, &cp) || cp.Page != page {
		t.Fatalf("skipped extent error %v, want *pager.ErrCorruptPage for page %d", sk.Err, page)
	}
}
