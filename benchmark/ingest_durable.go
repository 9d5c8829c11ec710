package main

import (
	"time"

	rs "rodentstore"
)

// layoutIngest keeps the table as levelled runs (ROADMAP PR 10): inserts
// land as tail batches, a background worker folds AutoMergeTails of them
// into a level-1 run and cascades level folds.
const (
	layoutIngest   = "leveled[4](chunk[256](orderby[t](Obs)))"
	autoMergeTails = 8
	ingestCars     = 200 // fleet of the writing workloads, whatever their length

	// maxInserts ends ingest_durable's timed phase early on a machine (or an
	// engine) fast enough to get there within -seconds. Every 1,024 inserts
	// the levelled layout's cascade re-renders its top level under the table
	// lock: 262k rows, then 524k, 786k, a million. The fold at 3,072 inserts
	// stalls an insert for over a second, and here it would fall right at
	// the end of a 10 s run, in some runs and not in others; the one at
	// 4,096 takes longer than the lock manager's 2 s wait, and the next
	// insert fails with "txn: lock wait timeout (possible deadlock)". A
	// benchmark workload must be steady and one on which no operation fails,
	// so the phase stops before the third of these folds.
	maxInserts = 3000
)

func ingestOptions(fs *countFS) *rs.Options {
	return &rs.Options{PageSize: pageSize, DurableInserts: true, AutoMergeTails: autoMergeTails, FS: fs}
}

// writer issues durable 256-row inserts back-to-back, generating each batch
// just before it is sent (outside the latency sample), and keeps what the
// oracles need of every acknowledged row.
type writer struct {
	c      *client
	fl     *fleet
	pre    []obs // generated in set-up, consumed before generating more
	batch  []obs
	rows   []rs.Row
	acked  tally
	groups *groups
	user   int64
}

func newWriter(c *client, fl *fleet) *writer {
	return &writer{c: c, fl: fl, rows: make([]rs.Row, batchLen), groups: newGroups(len(fl.ids))}
}

func (w *writer) insertNext() bool {
	if len(w.pre) >= batchLen {
		w.batch, w.pre = w.pre[:batchLen], w.pre[batchLen:]
	} else {
		w.batch = w.fl.take(w.batch[:0], batchLen)
	}
	for i, o := range w.batch {
		w.rows[i] = w.fl.row(o)
	}
	if !w.c.insert("Obs", w.rows) {
		return false
	}
	for _, o := range w.batch {
		w.acked.add(o.lat, o.lon)
	}
	w.groups.add(w.batch)
	w.user += w.fl.userBytes(w.batch)
	return true
}

// runIngestDurable is the write side alone: WAL append and fsync, commit,
// catalog delta, fold rendering and levelled compaction do all the work.
func runIngestDurable(e *env) error {
	path := e.path("ingest_durable.rdnt")
	type state struct {
		db  *rs.DB
		fl  *fleet
		pre []obs
	}
	build := func() (*state, error) {
		removeDB(path)
		db, err := rs.Create(path, ingestOptions(e.fs))
		if err != nil {
			return nil, err
		}
		if err := db.CreateTable("Obs", schema, layoutIngest); err != nil {
			return nil, err
		}
		// Set-up generates every observation the timed phase can insert.
		fl := newFleet(e.seed, ingestCars)
		return &state{db, fl, fl.take(nil, maxInserts*batchLen)}, nil
	}
	// This set-up takes tens of milliseconds, most of it first-touch page
	// faults, so it is repeated five times as often as the others'.
	s, err := repeatSetup(e, 5*e.scale.SetupReps, build, func(s *state) error { return s.db.Close() })
	if err != nil {
		return err
	}

	w := newWriter(newClient(s.db, e.tr), s.fl)
	w.pre = s.pre
	ioBefore := e.ioNow()
	start := time.Now()
	for n := 0; n == 0 || n < maxInserts && time.Since(start) < e.seconds; n++ {
		w.insertNext()
	}
	elapsed := time.Since(start).Seconds()
	// Backlog: how long the background folds still need after the last ack.
	t0 := time.Now()
	if err := s.db.WaitMerges(); err != nil {
		e.mismatch("background merge: %v", err)
	}
	drain := time.Since(t0).Seconds()
	ioAfter := e.ioNow()
	e.noteIO(ioBefore, ioAfter)
	e.collect(w.c)
	stats := s.db.CompactionStats()

	// Close, reopen, and find every acknowledged row.
	if err := s.db.Close(); err != nil {
		return err
	}
	size, err := fileSize(path)
	if err != nil {
		return err
	}
	back, err := rs.OpenWithOptions(path, &rs.Options{FS: e.fs})
	if err != nil {
		return err
	}
	count, err := back.RowCount("Obs")
	if err != nil {
		return err
	}
	if count != w.acked.n {
		e.mismatch("RowCount after reopen is %d, acknowledged %d", count, w.acked.n)
	}
	checkFullTable(e, back, w.acked, w.groups, s.fl.ids)
	if err := back.Close(); err != nil {
		return err
	}

	inserts := float64(w.c.attempted - w.c.failed)
	written := e.res.PerLayer["vfs.data_write_bytes"] + e.res.PerLayer["vfs.log_write_bytes"]
	e.res.EndToEnd["ops_per_s"] = inserts / elapsed
	e.res.EndToEnd["rows_per_s"] = float64(w.acked.n) / elapsed
	e.res.EndToEnd["p50_ms"] = e.res.Classes[classInsert].P50Ms
	e.res.EndToEnd["space_amp"] = float64(size) / float64(w.user)
	e.res.PerLayer["vfs.write_amp"] = written / float64(w.user)
	e.res.PerLayer["wal.fsyncs_per_insert"] = e.res.PerLayer["vfs.log_syncs"] / inserts
	e.res.PerLayer["table.drain_s"] = drain
	e.res.PerLayer["table.merges"] = float64(stats.Merges)
	e.res.PerLayer["table.merge_rows"] = float64(stats.Rows)
	e.res.PerLayer["table.merge_bytes"] = float64(stats.Bytes)
	e.res.Info["rows_acked"] = w.acked.n
	e.res.Info["layout"] = layoutIngest
	e.res.Info["auto_merge_tails"] = autoMergeTails
	e.res.Info["cache_pages"] = 0
	e.res.Info["table_pages"] = size / pageSize
	e.res.Info["user_bytes"] = w.user
	e.res.Info["clients"] = 1

	if e.tr != nil {
		return probeLayers(e, path, probeSpec{
			table: "Obs", fields: []string{"t", "lat", "lon", "id"}, class: classInsert, groupBy: true, wal: true, compact: true,
		})
	}
	return nil
}

// checkFullTable scans the whole table and runs the aggregate, against the
// acknowledged rows.
func checkFullTable(e *env, db *rs.DB, want tally, oracle *groups, ids []string) {
	cur, err := db.Scan("Obs", rs.Query{})
	if err != nil {
		e.mismatch("full scan: %v", err)
		return
	}
	var got tally
	err = drainBatches(cur, 1, 2, &got)
	cur.Close()
	if err != nil {
		e.mismatch("full scan: %v", err)
	} else if got != want {
		e.mismatch("full scan: %d rows (checksum %x), acknowledged %d (%x)", got.n, got.sum, want.n, want.sum)
	}
	cur, err = db.Scan("Obs", aggQuery())
	if err != nil {
		e.mismatch("agg: %v", err)
		return
	}
	rows, err := cur.All()
	cur.Close()
	if err != nil {
		e.mismatch("agg: %v", err)
	} else if err := oracle.check(ids, aggRows(rows)); err != nil {
		e.mismatch("after quiesce: %v", err)
	}
}
