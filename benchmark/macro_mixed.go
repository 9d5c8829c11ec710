package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	rs "rodentstore"
)

// macroCachePages is the buffer pool of macro_mixed. It is 0, not the
// quarter of the table the issue asked for, because at this commit a pool
// beside concurrent folds serves stale frames: a fold frees extents, an
// insert reuses the pages through the pager, and the pool still holds the
// old payloads ("segment: extent [...] corrupt: ..." in readers and in the
// background merge itself). README.md has the details; a benchmark
// workload must be one on which no operation fails.
const macroCachePages = 0

type macroState struct {
	db      *rs.DB
	fl      *fleet
	base    []obs
	keys    []int
	ranges  []trange
	loadSec float64
}

// runMacroMixed reads beside writes on one table: a writer inserting
// durably while a reader cycles index lookups, time-range scans and an
// aggregate, with background folds running under both.
func runMacroMixed(e *env) error {
	path := e.path("macro_mixed.rdnt")
	opts := ingestOptions(e.fs)
	opts.CachePages = macroCachePages
	build := func() (*macroState, error) {
		removeDB(path)
		s := &macroState{fl: newFleet(e.seed, ingestCars)}
		s.base = s.fl.take(nil, e.scale.MacroRows)
		r := rand.New(rand.NewSource(e.seed + 1))
		s.keys = genKeys(r, e.scale.QuerySet, s.base)
		s.ranges = genRanges(r, e.scale.QuerySet, s.base[len(s.base)-1].t, 0.01)
		db, err := rs.Create(path, opts)
		if err != nil {
			return nil, err
		}
		s.db = db
		if err := db.CreateTable("Obs", schema, layoutIngest); err != nil {
			return nil, err
		}
		rows := s.fl.rows(s.base)
		t0 := time.Now()
		if err := db.Load("Obs", rows); err != nil {
			return nil, err
		}
		s.loadSec = time.Since(t0).Seconds()
		return s, db.CreateIndex("Obs", "t")
	}
	s, err := repeatSetup(e, e.scale.SetupReps, build, func(s *macroState) error { return s.db.Close() })
	if err != nil {
		return err
	}
	e.res.PerLayer["layout.load_rows_per_s"] = float64(len(s.base)) / s.loadSec

	// Pre-ingest snapshot: the reads are checked once before any write, and
	// the page cost of a lookup is taken here, where it depends on the seed
	// alone.
	rangeWant := make([]tally, len(s.ranges))
	ro := newRangeOracle(s.base)
	for i, q := range s.ranges {
		rangeWant[i] = ro.tally(q)
	}
	var baseTally tally
	for _, o := range s.base {
		baseTally.add(o.lat, o.lon)
	}
	baseGroups := newGroups(len(s.fl.ids))
	baseGroups.add(s.base)
	newReader := func(tr *tracer) *reader {
		return &reader{e: e, s: s, c: newClient(s.db, tr), rangeWant: rangeWant}
	}
	pre := newReader(nil)
	s.db.ResetIOStats()
	for i := range s.keys {
		pre.lookup(i)
	}
	e.res.PerLayer["index.pages_per_lookup"] = float64(s.db.IOStats().PageReads) / float64(len(s.keys))
	for i := range s.ranges {
		pre.timeRange(i)
	}
	checkFullTable(e, s.db, baseTally, baseGroups, s.fl.ids)
	if pre.c.failed > 0 {
		e.mismatch("pre-ingest snapshot: %d calls failed: %v", pre.c.failed, pre.c.errs)
	}

	// Timed phase: two clients for -seconds.
	w := newWriter(newClient(s.db, e.tr), s.fl)
	w.acked, w.groups = baseTally, baseGroups
	rd := newReader(e.tr)
	var issued, acked atomic.Int64 // rows, for bracketing the reader's aggregates
	issued.Store(baseTally.n)
	acked.Store(baseTally.n)
	rd.issued, rd.acked = &issued, &acked
	ioBefore := e.ioNow()
	s.db.ResetIOStats()
	start := time.Now()
	deadline := start.Add(e.seconds)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for n := 0; n == 0 || time.Now().Before(deadline); n++ {
			issued.Add(batchLen)
			if !w.insertNext() {
				issued.Add(-batchLen)
			}
			acked.Store(w.acked.n)
		}
	}()
	go func() {
		defer wg.Done()
		for n := 0; n == 0 || time.Now().Before(deadline); n++ {
			rd.cycle(n)
		}
	}()
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	reads := s.db.IOStats().PageReads
	t0 := time.Now()
	if err := s.db.WaitMerges(); err != nil {
		e.mismatch("background merge: %v", err)
	}
	drain := time.Since(t0).Seconds()
	e.noteIO(ioBefore, e.ioNow())
	e.collect(w.c, rd.c)
	stats := s.db.CompactionStats()

	// After quiesce: the same reads again, and the whole table.
	post := newReader(nil)
	for i := range s.keys {
		post.lookup(i)
	}
	for i := range s.ranges {
		post.timeRange(i)
	}
	if post.c.failed > 0 {
		e.mismatch("after quiesce: %d calls failed: %v", post.c.failed, post.c.errs)
	}
	checkFullTable(e, s.db, w.acked, w.groups, s.fl.ids)
	if err := s.db.Close(); err != nil {
		return err
	}
	size, err := fileSize(path)
	if err != nil {
		return err
	}

	user := s.fl.userBytes(s.base) + w.user
	inserts := float64(w.c.attempted - w.c.failed)
	readOps := float64(rd.c.attempted - rd.c.failed)
	e.res.EndToEnd["ops_per_s"] = readOps / elapsed
	e.res.EndToEnd["rows_per_s"] = inserts * batchLen / elapsed
	e.res.EndToEnd["p50_ms"] = e.res.Classes[classLookup].P50Ms
	e.res.EndToEnd["space_amp"] = float64(size) / float64(user)
	written := e.res.PerLayer["vfs.data_write_bytes"] + e.res.PerLayer["vfs.log_write_bytes"]
	e.res.PerLayer["vfs.write_amp"] = written / float64(w.user)
	e.res.PerLayer["wal.fsyncs_per_insert"] = e.res.PerLayer["vfs.log_syncs"] / inserts
	e.res.PerLayer["pager.pages_per_op"] = float64(reads) / (readOps + inserts)
	e.res.PerLayer["table.drain_s"] = drain
	e.res.PerLayer["table.merges"] = float64(stats.Merges)
	e.res.PerLayer["table.merge_rows"] = float64(stats.Rows)
	e.res.PerLayer["table.merge_bytes"] = float64(stats.Bytes)
	e.res.Info["rows_loaded"] = len(s.base)
	e.res.Info["rows_acked"] = w.acked.n
	e.res.Info["inserts"] = inserts
	e.res.Info["read_ops"] = readOps
	e.res.Info["layout"] = layoutIngest
	e.res.Info["auto_merge_tails"] = autoMergeTails
	e.res.Info["cache_pages"] = macroCachePages
	e.res.Info["table_pages"] = size / pageSize
	e.res.Info["user_bytes"] = user
	e.res.Info["clients"] = 2
	e.res.Info["reader_script"] = "6 lookup, 3 range, 1 agg"

	if e.tr != nil {
		wheres := make([]string, 0, 2*len(s.ranges))
		for i, q := range s.ranges {
			wheres = append(wheres, q.where(), fmt.Sprintf("t = %d", s.base[s.keys[i]].t))
		}
		return probeLayers(e, path, probeSpec{
			table: "Obs", fields: []string{"t", "lat", "lon", "id"}, wheres: wheres,
			class: classLookup, groupBy: true, wal: true, compact: true,
			opMs: summarize(pre.c.lat[classLookup]).P50Ms, pagesPerOp: e.res.PerLayer["index.pages_per_lookup"],
		})
	}
	return nil
}

// reader is the read side of macro_mixed. Lookups and ranges address the
// bulk-loaded rows only (inserted rows have later t), so their answers do
// not depend on how far the writer has got and are checked on every call.
type reader struct {
	e         *env
	s         *macroState
	c         *client
	rangeWant []tally
	// issued and acked bracket the table's row count while the writer runs
	// (nil outside the timed phase).
	issued, acked *atomic.Int64
}

// cycle is the reader's script: 6 lookups, 3 ranges, 1 aggregate.
func (r *reader) cycle(n int) {
	for i := 0; i < 6; i++ {
		r.lookup((n*6 + i) % len(r.s.keys))
	}
	for i := 0; i < 3; i++ {
		r.timeRange((n*3 + i) % len(r.s.ranges))
	}
	r.agg()
}

func (r *reader) lookup(i int) {
	o := r.s.base[r.s.keys[i]]
	var rows []rs.Row
	if r.c.query(classLookup,
		func() (*rs.Cursor, error) {
			return r.s.db.IndexScan("Obs", rs.Query{Where: fmt.Sprintf("t = %d", o.t)}, "t")
		},
		func(cur *rs.Cursor) (err error) { rows, err = cur.All(); return err }) {
		if len(rows) != 1 || !sameRow(rows[0], o, r.s.fl.ids[o.car]) {
			r.e.mismatch("lookup t=%d: got %v", o.t, rows)
		}
	}
}

func (r *reader) timeRange(i int) {
	var got tally
	if r.c.query(classRange,
		func() (*rs.Cursor, error) { return r.s.db.Scan("Obs", rs.Query{Where: r.s.ranges[i].where()}) },
		func(cur *rs.Cursor) error { return drainBatches(cur, 1, 2, &got) }) && got != r.rangeWant[i] {
		r.e.mismatch("range %v: %d rows (checksum %x), oracle %d (%x)", r.s.ranges[i], got.n, got.sum, r.rangeWant[i].n, r.rangeWant[i].sum)
	}
}

// agg runs the aggregate beside the writer. Its exact answer depends on how
// many inserts it saw, so the check is a bracket: the group counts must add
// up to at least the rows acknowledged before the call and at most the rows
// issued by its end — a fold that loses or doubles a batch breaks it.
func (r *reader) agg() {
	lo := r.acked.Load()
	var rows []rs.Row
	if !r.c.query(classAgg,
		func() (*rs.Cursor, error) { return r.s.db.Scan("Obs", aggQuery()) },
		func(cur *rs.Cursor) (err error) { rows, err = cur.All(); return err }) {
		return
	}
	hi := r.issued.Load()
	var total int64
	for _, g := range aggRows(rows) {
		total += g.n
	}
	if total < lo || total > hi {
		r.e.mismatch("agg beside writes: counts add up to %d, outside [%d, %d]", total, lo, hi)
	}
}
