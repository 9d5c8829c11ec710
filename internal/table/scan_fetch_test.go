package table

import (
	"testing"

	"rodentstore/internal/catalog"
	"rodentstore/internal/pager"
	"rodentstore/internal/vfs"
)

// TestScanReadsEachPageOnce pins the fetch path's access pattern on real op
// counts: over the fault-injection file system, a serial full scan issues
// exactly one page-sized ReadAt per table page and none twice — blocks that
// share a boundary page are served by the reader's one-page lookbehind. It
// is the pattern the paper-figure page/seek accounting measures.
func TestScanReadsEachPageOnce(t *testing.T) {
	const pageSize = 1024
	fs := vfs.NewFault(42)
	f, err := pager.CreateAt(fs, "db.rdnt", pageSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	cat, err := catalog.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(f, cat, nil)
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

	reads := make(map[int64]int) // file offset -> ReadAt calls
	fs.OnOp = func(op vfs.Op) {
		if op.Kind != vfs.OpRead {
			return
		}
		if op.Len != pageSize {
			t.Errorf("scan issued a %d-byte read at %d, want one page per ReadAt", op.Len, op.Off)
		}
		reads[op.Off]++
	}
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
}
