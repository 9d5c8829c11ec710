package main

import (
	"fmt"
	"time"

	rs "rodentstore"
)

// layoutScan is column-major with a codec on two of the four columns, so a
// scan pays segment decode and the compress kernels.
const layoutScan = "chunk[4096](delta[t](dict[id](cols(Obs))))"

// selectivities of the three filter operations.
var selectivities = []float64{0.001, 0.1, 1}

type scanState struct {
	db      *rs.DB
	fl      *fleet
	os      []obs
	cuts    []float64 // lat thresholds, one per selectivity
	loadSec float64
}

func aggQuery() rs.Query {
	return rs.Query{Aggregate: &rs.AggregateSpec{GroupBy: []string{"id"}, Aggs: []string{"count", "avg(lat)"}}}
}

func latFilter(x float64) string { return fmt.Sprintf("lat < %v", x) }

// runScanHot scans a table that fits the buffer pool: after the warm-up
// pass no page is read, and the time goes to block decode, the codecs, the
// compiled predicate, the aggregate kernels and cursor boxing.
func runScanHot(e *env) error {
	path := e.path("scan_hot.rdnt")
	// The pool is sized from the row count so that it exceeds the table's
	// pages with room to spare (about 36 stored bytes a row before
	// compression); the check below fails the run if it does not.
	pool := e.scale.ScanRows*48/pageSize + 1024
	build := func() (*scanState, error) {
		removeDB(path)
		s := &scanState{fl: newFleet(e.seed, fleetSize(e.scale.ScanRows))}
		s.os = s.fl.take(nil, e.scale.ScanRows)
		for _, sel := range selectivities {
			s.cuts = append(s.cuts, latQuantile(s.os, sel))
		}
		db, err := rs.Create(path, &rs.Options{PageSize: pageSize, CachePages: pool, FS: e.fs})
		if err != nil {
			return nil, err
		}
		s.db = db
		if err := db.CreateTable("Obs", schema, layoutScan); err != nil {
			return nil, err
		}
		if err := db.ValidateLayout("Obs", layoutScan); err != nil {
			return nil, err
		}
		rows := s.fl.rows(s.os)
		t0 := time.Now()
		if err := db.Load("Obs", rows); err != nil {
			return nil, err
		}
		s.loadSec = time.Since(t0).Seconds()
		// Warm-up: one untimed pass over every column fills the pool.
		cur, err := db.Scan("Obs", rs.Query{})
		if err != nil {
			return nil, err
		}
		defer cur.Close()
		var all tally
		return s, drainBatches(cur, 1, 2, &all)
	}
	s, err := repeatSetup(e, e.scale.SetupReps, build, func(s *scanState) error { return s.db.Close() })
	if err != nil {
		return err
	}
	e.res.PerLayer["layout.load_rows_per_s"] = float64(len(s.os)) / s.loadSec

	// Timed phase: one client repeats the script filter x3, rowscan, agg.
	// Only whole cycles run, so every class has the same share of the time.
	c := newClient(s.db, e.tr)
	want := make([]tally, len(s.cuts))
	for i, x := range s.cuts {
		want[i] = latBelow(s.os, x)
	}
	oracle := newGroups(len(s.fl.ids))
	oracle.add(s.os)
	var ops int64
	ioBefore := e.ioNow()
	s.db.ResetIOStats()
	start := time.Now()
	for cycle := 0; cycle == 0 || time.Since(start) < e.seconds; cycle++ {
		for i, x := range s.cuts {
			var got tally
			if c.query(classFilter,
				func() (*rs.Cursor, error) { return s.db.Scan("Obs", rs.Query{Where: latFilter(x)}) },
				func(cur *rs.Cursor) error { return drainBatches(cur, 1, 2, &got) }) && got != want[i] {
				e.mismatch("filter %v: %d rows (checksum %x), oracle %d (%x)", selectivities[i], got.n, got.sum, want[i].n, want[i].sum)
			}
		}
		var got tally
		if c.query(classRowscan,
			func() (*rs.Cursor, error) { return s.db.Scan("Obs", rs.Query{Where: latFilter(s.cuts[1])}) },
			func(cur *rs.Cursor) error { return drainRows(cur, 1, 2, &got) }) && got != want[1] {
			e.mismatch("rowscan: %d rows (checksum %x), oracle %d (%x)", got.n, got.sum, want[1].n, want[1].sum)
		}
		var groups []rs.Row
		if c.query(classAgg,
			func() (*rs.Cursor, error) { return s.db.Scan("Obs", aggQuery()) },
			func(cur *rs.Cursor) (err error) { groups, err = cur.All(); return err }) {
			if err := oracle.check(s.fl.ids, aggRows(groups)); err != nil {
				e.mismatch("%v", err)
			}
		}
		ops += int64(len(s.cuts)) + 2
	}
	elapsed := time.Since(start).Seconds()
	missed := s.db.IOStats().PageReads
	e.noteIO(ioBefore, e.ioNow())
	e.collect(c)

	if err := s.db.Close(); err != nil {
		return err
	}
	size, err := fileSize(path)
	if err != nil {
		return err
	}
	tablePages := size / pageSize
	if int64(pool) < tablePages {
		e.mismatch("scan_hot: pool of %d pages is smaller than the table's %d", pool, tablePages)
	}
	user := s.fl.userBytes(s.os)
	done := float64(c.attempted - c.failed)
	// Every operation of the script examines the whole table.
	e.res.EndToEnd["ops_per_s"] = done / elapsed
	e.res.EndToEnd["rows_per_s"] = done * float64(len(s.os)) / elapsed
	e.res.EndToEnd["p50_ms"] = e.res.Classes[classFilter].P50Ms
	e.res.EndToEnd["space_amp"] = float64(size) / float64(user)
	e.res.PerLayer["pager.pages_per_op"] = float64(missed) / float64(ops)
	e.res.PerLayer["buffer.miss_pages_per_op"] = float64(missed) / float64(ops)
	e.res.Info["rows"] = len(s.os)
	e.res.Info["layout"] = layoutScan
	e.res.Info["cache_pages"] = pool
	e.res.Info["table_pages"] = tablePages
	e.res.Info["user_bytes"] = user
	e.res.Info["script"] = "filter 0.1%, filter 10%, filter 100%, rowscan 10%, agg"
	e.res.Info["clients"] = 1

	if e.tr != nil {
		return probeLayers(e, path, probeSpec{
			table: "Obs", fields: []string{"t", "lat", "lon", "id"},
			wheres: []string{latFilter(s.cuts[0]), latFilter(s.cuts[1]), latFilter(s.cuts[2])},
			class:  classFilter, groupBy: true, compact: true, poolPages: pool,
			predCols: 1, selectivity: (selectivities[0] + selectivities[1] + selectivities[2]) / 3,
		})
	}
	return nil
}
