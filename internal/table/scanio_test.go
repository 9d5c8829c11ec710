package table

import (
	"sync"
	"sync/atomic"
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/catalog"
	"rodentstore/internal/pager"
	"rodentstore/internal/value"
	"rodentstore/internal/vfs"
)

// newFaultEngine builds an engine over the fault-injection file system so
// tests can count, fail, and corrupt individual ReadAt calls.
func newFaultEngine(t *testing.T) (*Engine, *pager.File, *vfs.Fault) {
	t.Helper()
	fs := vfs.NewFault(42)
	f, err := pager.CreateAt(fs, "db.rdnt", 1024)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	cat, err := catalog.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(f, cat, nil), f, fs
}

// loadScanIOTable creates and loads a table whose main part has many
// physically adjacent blocks, returning the block count.
func loadScanIOTable(t *testing.T, e *Engine, rows int) int {
	t.Helper()
	if err := e.Create("T", tracesSchema(), "chunk[128](rows(T))"); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("T", traceRows(rows)); err != nil {
		t.Fatal(err)
	}
	tab, err := e.cat.Get("T")
	if err != nil {
		t.Fatal(err)
	}
	return len(tab.Segments[0].Meta.Blocks)
}

// TestScanCoalescedReadAtCount pins the tentpole's syscall win and the
// paper-figure invariance on real op counts: a coalesced full scan of N
// adjacent blocks must issue at most N/4 ReadAt calls, while the default
// serial scan must keep reading one page per ReadAt, each spanned page
// exactly once — the access pattern the paper-figure experiments measure.
func TestScanCoalescedReadAtCount(t *testing.T) {
	e, _, fs := newFaultEngine(t)
	nblocks := loadScanIOTable(t, e, 4096)
	if nblocks < 16 {
		t.Fatalf("want >= 16 blocks for a meaningful ratio, got %d", nblocks)
	}

	var mu sync.Mutex
	var ops []vfs.Op
	countScan := func(opts ScanOptions) []vfs.Op {
		mu.Lock()
		ops = nil
		mu.Unlock()
		fs.OnOp = func(op vfs.Op) {
			if op.Kind == vfs.OpRead {
				mu.Lock()
				ops = append(ops, op)
				mu.Unlock()
			}
		}
		defer func() { fs.OnOp = nil }()
		cur, err := e.Scan("T", opts)
		if err != nil {
			t.Fatal(err)
		}
		n := len(drain(t, cur))
		cur.Close()
		if n != 4096 {
			t.Fatalf("scan returned %d rows, want 4096", n)
		}
		mu.Lock()
		defer mu.Unlock()
		return ops
	}

	serial := countScan(ScanOptions{})
	for _, op := range serial {
		if op.Len != 1024 {
			t.Fatalf("default serial scan issued a %d-byte read: the paper-figure access pattern must stay one page per ReadAt", op.Len)
		}
	}
	seen := make(map[int64]int)
	for _, op := range serial {
		seen[op.Off]++
	}
	for off, n := range seen {
		if n != 1 {
			t.Fatalf("default serial scan read page at offset %d %d times, want exactly once", off, n)
		}
	}

	coalesced := countScan(ScanOptions{Coalesce: true})
	if max := nblocks / 4; len(coalesced) > max {
		t.Fatalf("coalesced scan of %d blocks issued %d ReadAt calls, want <= %d", nblocks, len(coalesced), max)
	}
	var serialBytes, coalescedBytes int
	for _, op := range serial {
		serialBytes += op.Len
	}
	for _, op := range coalesced {
		coalescedBytes += op.Len
	}
	if coalescedBytes > serialBytes+4*1024 {
		t.Fatalf("coalescing re-read data: %d bytes vs %d serial", coalescedBytes, serialBytes)
	}

	prefetched := countScan(ScanOptions{Prefetch: true})
	if max := nblocks / 4; len(prefetched) > max {
		t.Fatalf("prefetched scan of %d blocks issued %d ReadAt calls, want <= %d", nblocks, len(prefetched), max)
	}
}

// TestScanCoalescedQuarantineSubRange corrupts one page mid-extent and
// checks every quarantine variant (serial/morsel × plain/coalesce/prefetch)
// returns exactly the rows the boxed oracle can decode and reports the same
// skipped rows as the per-block scan: a failed coalesced read retries only
// the damaged tail, never discarding blocks whose bytes already read cleanly.
func TestScanCoalescedQuarantineSubRange(t *testing.T) {
	e, f, fs := newFaultEngine(t)
	nblocks := loadScanIOTable(t, e, 4096)
	tab, err := e.cat.Get("T")
	if err != nil {
		t.Fatal(err)
	}
	meta := tab.Segments[0].Meta
	payload := int64(f.PayloadSize())
	// Corrupt the page holding the middle block's first byte.
	bm := meta.Blocks[nblocks/2]
	pg := int64(meta.ExtentStart) + int64(bm.Off)/payload
	fs.Corrupt("db.rdnt", pg*1024+4+int64(bm.Off)%payload, 8)

	// The boxed oracle skips exactly the blocks it cannot decode.
	want := oracleScan(t, e, "T", ScanOptions{Quarantine: true})
	if len(want) == 4096 || len(want) == 0 {
		t.Fatalf("corruption not exercised: oracle returned %d rows", len(want))
	}
	var wantRep ScanReport
	for vi, v := range scanVariants(ScanOptions{}) {
		if !v.opts.Quarantine {
			continue
		}
		cur, err := e.Scan("T", v.opts)
		if err != nil {
			t.Fatal(err)
		}
		got, rep := drain(t, cur), cur.Report()
		cur.Close()
		requireRows(t, v.name, got, want)
		if vi == 1 { // serial-plain-quarantine: the per-block report the rest must match
			wantRep = rep
			if len(rep.Skipped) == 0 {
				t.Fatal("per-block quarantine scan reported nothing skipped")
			}
		}
		if len(rep.Skipped) != len(wantRep.Skipped) || rep.Skipped[0].Rows != wantRep.Skipped[0].Rows {
			t.Fatalf("%s: quarantined %+v, per-block scan %+v", v.name, rep.Skipped, wantRep.Skipped)
		}
	}
	if n := prefetchInFlight.Load(); n != 0 {
		t.Fatalf("%d prefetch leases still outstanding", n)
	}
}

// TestScanPrefetchNoLeakUnderShortReads injects intermittent short reads and
// checks that every prefetched buffer set has exactly one owner on every
// path: after full drains, early closes, and quarantined retries, no lease
// is left outstanding.
func TestScanPrefetchNoLeakUnderShortReads(t *testing.T) {
	e, _, fs := newFaultEngine(t)
	loadScanIOTable(t, e, 4096)
	var reads atomic.Uint64
	fs.Inject = func(op vfs.Op) vfs.Decision {
		if op.Kind == vfs.OpRead && reads.Add(1)%7 == 0 {
			return vfs.ShortRead
		}
		return vfs.OK
	}
	defer func() { fs.Inject = nil }()

	for trial := 0; trial < 8; trial++ {
		opts := ScanOptions{Prefetch: true, Quarantine: true}
		if trial%2 == 1 {
			opts.Parallel, opts.Workers = true, 3
		}
		cur, err := e.Scan("T", opts)
		if err != nil {
			t.Fatal(err)
		}
		if trial%4 < 2 {
			// Early close mid-prefetch: read a few rows, then abandon.
			for i := 0; i < 10; i++ {
				if _, ok, err := cur.Next(); err != nil || !ok {
					break
				}
			}
		} else {
			drain(t, cur)
		}
		cur.Close()
	}
	if n := prefetchInFlight.Load(); n != 0 {
		t.Fatalf("%d prefetch leases outstanding after Close", n)
	}
}

// TestScanPrefetchCloseRace hammers concurrent scans that close mid-prefetch
// (run under -race): cursor teardown must join the prefetcher so no
// goroutine touches readers or buffers after Close returns.
func TestScanPrefetchCloseRace(t *testing.T) {
	e, _, _ := newFaultEngine(t)
	loadScanIOTable(t, e, 4096)
	pred := algebra.True.And("t", algebra.OpLt, value.NewInt(4000))
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				opts := ScanOptions{Prefetch: true, Pred: pred}
				if g%2 == 0 {
					opts.Parallel, opts.Workers = true, 2
				}
				cur, err := e.Scan("T", opts)
				if err != nil {
					t.Error(err)
					return
				}
				for j := 0; j < (i%5)*7; j++ {
					if _, ok, err := cur.Next(); err != nil || !ok {
						break
					}
				}
				cur.Close()
			}
		}(g)
	}
	wg.Wait()
	if n := prefetchInFlight.Load(); n != 0 {
		t.Fatalf("%d prefetch leases outstanding after close storm", n)
	}
}
