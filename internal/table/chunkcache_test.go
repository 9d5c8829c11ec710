package table

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"rodentstore/internal/algebra"
	"rodentstore/internal/pager"
	"rodentstore/internal/segment"
	"rodentstore/internal/value"
	"rodentstore/internal/vec"
	"rodentstore/internal/vfs"
)

// faultEngine is an engine over a fresh page file and its log on fs.
func faultEngine(t *testing.T, fs *vfs.Fault) (*Engine, *pager.File) {
	t.Helper()
	f, err := pager.CreateAt(fs, "db.rdnt", 1024)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return engineOn(t, fs, "db.rdnt", f), f
}

// TestCacheRefusesInsertOvertakenByInvalidation drives the generation guard
// directly: a decode that read its bytes before an invalidation must not
// insert after it, even though the entry was dropped already. An
// invalidation drops the entries of every extent that starts in its range
// and no other, and the pager's frees and writes reach the cache.
func TestCacheRefusesInsertOvertakenByInvalidation(t *testing.T) {
	_, f, _ := newEngine(t)
	c := newChunkCache(f, 1<<20)
	var v vec.Vector
	v.Reset(value.Int)
	v.AppendInt64(7)
	in, out := chunkKey{ext: 100, block: 3, col: 1}, chunkKey{ext: 200, block: 3, col: 1}

	gen := c.generation() // the decode starts
	c.invalidate(100, 1)  // its extent is freed meanwhile
	c.put(in, gen, &v)    // and the decode finishes
	if c.get(in) != nil {
		t.Fatal("a decode overtaken by an invalidation was cached")
	}
	gen = c.generation()
	c.invalidate(5000, 1) // any invalidation since the fetch refuses the insert
	c.put(out, gen, &v)
	if c.get(out) != nil {
		t.Fatal("a decode that began before an invalidation was cached")
	}

	gen = c.generation()
	c.put(in, gen, &v)
	c.put(out, gen, &v)
	if got := c.get(in); got == nil || got.Len() != 1 || got.Int64s[0] != 7 {
		t.Fatalf("cached chunk: %+v", got)
	}
	c.invalidate(90, 20) // [90, 110) holds extent 100's start, not 200's
	if c.get(in) != nil || c.get(out) == nil {
		t.Fatal("invalidating [90,110) must drop extent 100's chunk and keep extent 200's")
	}
	c.clear()
	if c.get(out) != nil {
		t.Fatal("clear kept a chunk")
	}

	// The pager's frees and writes invalidate.
	start, err := f.AllocateRun(4)
	if err != nil {
		t.Fatal(err)
	}
	k := chunkKey{ext: start}
	c.put(k, c.generation(), &v)
	if err := f.WriteRun(start, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if c.get(k) != nil {
		t.Fatal("a rewritten extent's chunk survived")
	}
	c.put(k, c.generation(), &v)
	if err := f.FreeRun(start, 4); err != nil {
		t.Fatal(err)
	}
	if c.get(k) != nil {
		t.Fatal("a freed extent's chunk survived")
	}
	if s := c.stats(); s.entries != 0 || s.bytes != 0 {
		t.Fatalf("empty cache accounts %+v", s)
	}
}

// TestCacheServesReusedExtentFresh caches every chunk of a table, drops it
// and loads another table whose segments reuse the freed extents: a scan of
// the new table returns its own rows, not the dropped table's decoded
// values under the same keys.
func TestCacheServesReusedExtentFresh(t *testing.T) {
	e, _, _ := newEngine(t)
	e.EnableCache(1 << 20)
	const layout = "chunk[128](cols(%s))"
	if err := e.Create("A", tracesSchema(), fmt.Sprintf(layout, "A")); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("A", traceRows(1000)); err != nil {
		t.Fatal(err)
	}
	scanAll := func(name string) []value.Row {
		t.Helper()
		cur, err := e.Scan(name, ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		return drain(t, cur)
	}
	scanAll("A")
	old := map[pager.PageID]bool{}
	tab, _ := e.cat.Get("A")
	for _, s := range tab.Segments {
		old[s.Meta.ExtentStart] = true
	}
	// B exists before A goes, so no catalog flush lands between A's frees
	// and B's render: B's segments are allocated first fit from A's.
	if err := e.Create("B", tracesSchema(), fmt.Sprintf(layout, "B")); err != nil {
		t.Fatal(err)
	}
	if err := e.Drop("A"); err != nil {
		t.Fatal(err)
	}
	rows := traceRows(1000)
	for _, r := range rows {
		r[0] = value.NewInt(r[0].Int() + 5000)
		r[1] = value.NewFloat(r[1].Float() + 1)
		r[3] = value.NewString("other-" + r[3].Str())
	}
	if err := e.Load("B", rows); err != nil {
		t.Fatal(err)
	}
	tab, _ = e.cat.Get("B")
	reused := 0
	for _, s := range tab.Segments {
		if old[s.Meta.ExtentStart] {
			reused++
		}
	}
	if reused == 0 {
		t.Fatal("no extent of the dropped table was reused; the test proves nothing")
	}
	sameRows(t, scanAll("B"), rows)
}

// TestCacheHoldsBudgetUnderEviction scans a table several times its cache
// budget with varied projections and predicates: every result equals an
// uncached engine's, the decoded bytes held never exceed the budget, and
// CLOCK both evicts and hits.
func TestCacheHoldsBudgetUnderEviction(t *testing.T) {
	const budget = 24 << 10
	plain, cached := gridEngine(t, 4000), gridEngine(t, 4000)
	cached.EnableCache(budget)
	rng := rand.New(rand.NewSource(5))
	fields := [][]string{nil, {"lat"}, {"lon", "t"}, {"id"}}
	for i := 0; i < 40; i++ {
		opts := ScanOptions{Fields: fields[rng.Intn(len(fields))]}
		if rng.Intn(2) == 0 {
			lo := 42.36 + (rng.Float64()-0.5)*0.01
			opts.Pred = algebra.True.And("lat", algebra.OpGe, value.NewFloat(lo)).And("lat", algebra.OpLt, value.NewFloat(lo+0.004))
		}
		scan := func(e *Engine) []value.Row {
			cur, err := e.Scan("Traces", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			return drain(t, cur)
		}
		sameRows(t, scan(cached), scan(plain))
		if s := cached.cache.stats(); s.bytes > budget {
			t.Fatalf("scan %d: cache holds %d bytes over a %d-byte budget", i, s.bytes, budget)
		}
	}
	if s := cached.cache.stats(); s.evictions == 0 || s.hits == 0 || s.entries == 0 {
		t.Fatalf("want evictions and hits, got %+v", s)
	}
}

// corruptBlockPage loads a 4,096-row rows(T) table into e and returns a
// page inside a middle block that spans three or more pages, with the
// block's index and metadata.
func corruptBlockPage(t *testing.T, e *Engine) (pager.PageID, int, segment.Meta) {
	t.Helper()
	if err := e.Create("T", tracesSchema(), "chunk[128](rows(T))"); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("T", traceRows(4096)); err != nil {
		t.Fatal(err)
	}
	tab, _ := e.cat.Get("T")
	meta := tab.Segments[0].Meta
	payload := uint64(e.file.PayloadSize())
	for i := len(meta.Blocks) / 2; i < len(meta.Blocks); i++ {
		b := meta.Blocks[i]
		if first, last := b.Off/payload, (b.Off+uint64(b.Len)-1)/payload; last-first >= 2 {
			return meta.ExtentStart + pager.PageID(first+1), i, meta
		}
	}
	t.Fatal("no block spans three pages")
	return 0, 0, meta
}

// TestCacheSkipsDamagedBlock: a block whose fetch fails its page checksum
// is never cached. A plain scan fails as it does uncached, a quarantined
// scan skips the block and reports it, and so does the next quarantined
// scan, which misses on that block again while every other block hits.
func TestCacheSkipsDamagedBlock(t *testing.T) {
	fs := vfs.NewFault(42)
	e, _ := faultEngine(t, fs)
	e.EnableCache(1 << 20)
	page, victim, meta := corruptBlockPage(t, e)
	if n := fs.Corrupt("db.rdnt", int64(page)*1024+100, 16); n != 16 {
		t.Fatalf("corrupted %d bytes, want 16", n)
	}
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
	if !errors.As(err, &ce) || ce.Start != meta.ExtentStart {
		t.Fatalf("scan error %v, want ErrCorruptExtent for extent %d", err, meta.ExtentStart)
	}
	bad := meta.Blocks[victim]
	for pass := 0; pass < 2; pass++ {
		before := e.cache.stats()
		cur, err := e.Scan("T", ScanOptions{Quarantine: true})
		if err != nil {
			t.Fatal(err)
		}
		rows := drain(t, cur)
		rep := cur.Report()
		cur.Close()
		if len(rows) != 4096-bad.Rows || len(rep.Skipped) != 1 || rep.Skipped[0].Blocks != 1 {
			t.Fatalf("pass %d: %d rows, report %+v; want %d rows and block %d skipped", pass, len(rows), rep, 4096-bad.Rows, victim)
		}
		for c := 0; c < 4; c++ {
			if e.cache.get(chunkKey{ext: meta.ExtentStart, block: victim, col: c}) != nil {
				t.Fatalf("pass %d: column %d of the damaged block is cached", pass, c)
			}
		}
		if pass == 1 {
			// Only the damaged block's first column missed (a corrupt
			// page is not retried); every other block hit.
			s := e.cache.stats()
			if misses := s.misses - before.misses - 4; misses != 1 {
				t.Fatalf("second quarantined scan: %d misses, want 1", misses)
			}
			if hits := s.hits - before.hits; hits != uint64(4*(len(meta.Blocks)-1)) {
				t.Fatalf("second quarantined scan: %d hits, want %d", hits, 4*(len(meta.Blocks)-1))
			}
		}
	}
}

// TestCheckIntegrityReadsPastCache caches every block of a table and then
// corrupts a page on disk: a scan is served from the cache, but
// CheckIntegrity reads the disk and reports the damaged block.
func TestCheckIntegrityReadsPastCache(t *testing.T) {
	fs := vfs.NewFault(42)
	e, f := faultEngine(t, fs)
	e.EnableCache(1 << 20)
	page, victim, meta := corruptBlockPage(t, e)
	scan := func() int {
		cur, err := e.Scan("T", ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		return len(drain(t, cur))
	}
	scan()
	if n := fs.Corrupt("db.rdnt", int64(page)*1024+100, 16); n != 16 {
		t.Fatalf("corrupted %d bytes, want 16", n)
	}
	f.ResetStats()
	if n := scan(); n != 4096 {
		t.Fatalf("cached scan: %d rows", n)
	}
	if n := f.Stats().PageReads; n != 0 {
		t.Fatalf("cached scan read %d pages", n)
	}
	rep, err := e.CheckIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	var cp *pager.ErrCorruptPage
	if len(rep.Issues) != 1 || rep.Issues[0].Block != victim || rep.Issues[0].Extent.Start != meta.ExtentStart ||
		!errors.As(rep.Issues[0].Err, &cp) || cp.Page != page {
		t.Fatalf("integrity issues %v, want block %d of extent %d at page %d", rep.Issues, victim, meta.ExtentStart, page)
	}
}

// TestCacheHitAllocations pins the warm fetch-and-decode step: once every
// chunk of a dict-coded column table is cached, decoding every column of
// every block into a reused batch reads no page, misses nothing and
// allocates nothing.
func TestCacheHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not steady under -race")
	}
	e := cursorNextEngine(t)
	cur, err := e.Scan("T", ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	plan := cur.plan
	b := vec.NewBatch(plan.decoded)
	var vs vecScratch
	decodeAll := func() {
		for _, ref := range plan.blocks {
			p := plan.parts[ref.part]
			vs.startBlock(p, plan.decoded.Arity())
			for di, f := range plan.decoded.Fields {
				if err := vs.decodeCol(p, ref.block, blockRowCount(p, ref.block), f.Name, &b.Cols[di]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	decodeAll() // fills the cache and sizes the batch
	before := e.cache.stats()
	e.file.ResetStats()
	if a := testing.AllocsPerRun(20, decodeAll); a != 0 {
		t.Errorf("a warm pass over %d blocks allocated %.1f times", len(plan.blocks), a)
	}
	s := e.cache.stats()
	if s.misses != before.misses || s.hits == before.hits {
		t.Errorf("warm passes: stats %+v after %+v, want hits only", s, before)
	}
	if n := e.file.Stats().PageReads; n != 0 {
		t.Errorf("warm passes read %d pages", n)
	}
}

// TestCacheCoherenceStress runs scans beside inserts and Compacts on one
// table through a cache far smaller than the table: folds free extents
// that later inserts and folds reuse, and CLOCK evicts throughout. Every
// scan of an acknowledged range must return exactly its rows with their
// own values; a chunk served for a freed-and-reused extent, or one cached
// from bytes read before an invalidation, shows as a wrong row. Run under
// -race (CI's concurrent cursor stress step).
func TestCacheCoherenceStress(t *testing.T) {
	const budget = 128 << 10
	e, _, _ := newEngine(t)
	e.EnableCache(budget)
	if err := e.Create("Obs", tracesSchema(), "chunk[64](orderby[t](Obs))"); err != nil {
		t.Fatal(err)
	}
	latOf := func(ts int64) float64 { return 42 + float64(ts%1000)/1000 }
	const batch, batches = 64, 120
	var acked atomic.Int64 // every row with t < acked is acknowledged
	done := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				hi := acked.Load()
				if hi == 0 {
					continue
				}
				lo := rng.Int63n(hi)
				hi = min(hi, lo+4*batch)
				pred := algebra.True.And("t", algebra.OpGe, value.NewInt(lo)).And("t", algebra.OpLt, value.NewInt(hi))
				cur, err := e.Scan("Obs", ScanOptions{Pred: pred})
				if err != nil {
					errs <- err
					return
				}
				n := int64(0)
				for {
					row, ok, err := cur.Next()
					if err != nil {
						cur.Close()
						errs <- fmt.Errorf("scan [%d,%d): %w", lo, hi, err)
						return
					}
					if !ok {
						break
					}
					if ts := row[0].Int(); ts < lo || ts >= hi || row[1].Float() != latOf(ts) {
						cur.Close()
						errs <- fmt.Errorf("scan [%d,%d): bad row %v", lo, hi, row)
						return
					}
					n++
				}
				cur.Close()
				if n != hi-lo {
					errs <- fmt.Errorf("scan [%d,%d): %d rows", lo, hi, n)
					return
				}
			}
		}(r)
	}
	for b := int64(0); b < batches; b++ {
		rows := make([]value.Row, batch)
		for i := range rows {
			ts := b*batch + int64(i)
			rows[i] = value.Row{value.NewInt(ts), value.NewFloat(latOf(ts)), value.NewFloat(-71), value.NewString("car-1")}
		}
		if err := e.Insert("Obs", rows); err != nil {
			t.Fatal(err)
		}
		acked.Store((b + 1) * batch)
		if b%6 == 5 {
			if err := e.Compact("Obs"); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := e.cache.stats(); s.hits == 0 || s.evictions == 0 || s.bytes > budget {
		t.Fatalf("want hits and evictions within %d bytes, got %+v", budget, s)
	}
}
