package main

import (
	"math/rand"
	"time"

	rs "rodentstore"
)

// layoutN4 is the paper's best layout for the case study (Figure 2, N4):
// drop t and id, grid on lat/lon, order cells on a z-curve, delta-compress.
const layoutN4 = "chunk[64](delta[lat,lon](zorder(grid[lat,lon; 64,64](project[lat,lon](groupby[id](orderby[t](Traces)))))))"

type windowState struct {
	db      *rs.DB
	fl      *fleet
	os      []obs
	windows []window
	loadSec float64
}

// runWindowCold is the paper's own experiment: spatial window queries over
// CarTel-shaped traces under N4, with no buffer pool, so that every page a
// query touches is a real ReadAt and CRC check.
func runWindowCold(e *env) error {
	path := e.path("window_cold.rdnt")
	build := func() (*windowState, error) {
		removeDB(path)
		s := &windowState{fl: newFleet(e.seed, fleetSize(e.scale.WindowRows))}
		s.os = s.fl.take(nil, e.scale.WindowRows)
		s.windows = genWindows(rand.New(rand.NewSource(e.seed+1)), e.scale.WindowDistinct, 0.01)
		db, err := rs.Create(path, &rs.Options{PageSize: pageSize, CachePages: 0, FS: e.fs})
		if err != nil {
			return nil, err
		}
		s.db = db
		if err := db.CreateTable("Traces", schema, layoutN4); err != nil {
			return nil, err
		}
		rows := s.fl.rows(s.os)
		t0 := time.Now()
		if err := db.Load("Traces", rows); err != nil {
			return nil, err
		}
		s.loadSec = time.Since(t0).Seconds()
		return s, nil
	}
	s, err := repeatSetup(e, e.scale.SetupReps, build, func(s *windowState) error { return s.db.Close() })
	if err != nil {
		return err
	}
	e.res.PerLayer["layout.load_rows_per_s"] = float64(len(s.os)) / s.loadSec

	// Timed phase: one client cycles the distinct windows. The first cycle
	// always completes, whatever -seconds says: the page and seek counts are
	// taken over exactly that cycle, so they depend on the seed alone.
	c := newClient(s.db, e.tr)
	first := make([]tally, len(s.windows))
	seen := make([]bool, len(s.windows))
	fields := []string{"lat", "lon"}
	var rowsOut int64
	var cycleIO rs.IOStats
	ioBefore := e.ioNow()
	s.db.ResetIOStats()
	start := time.Now()
	for i := 0; i < len(s.windows) || time.Since(start) < e.seconds; i++ {
		wi := i % len(s.windows)
		var got tally
		ok := c.query(classWindow,
			func() (*rs.Cursor, error) {
				return s.db.Scan("Traces", rs.Query{Fields: fields, Where: s.windows[wi].where()})
			},
			func(cur *rs.Cursor) error { return drainBatches(cur, 0, 1, &got) })
		if !ok {
			continue
		}
		rowsOut += got.n
		if !seen[wi] {
			first[wi], seen[wi] = got, true
		} else if got != first[wi] {
			e.mismatch("window %d: repeat returned %d rows (checksum %x), first pass %d (%x)", wi, got.n, got.sum, first[wi].n, first[wi].sum)
		}
		if i == len(s.windows)-1 {
			cycleIO = s.db.IOStats()
		}
	}
	elapsed := time.Since(start).Seconds()
	e.noteIO(ioBefore, e.ioNow())
	e.collect(c)

	// Output check: every distinct window against a pass over the rows.
	for wi, want := range windowOracle(s.os, s.windows) {
		if seen[wi] && first[wi] != want {
			e.mismatch("window %d: %d rows (checksum %x), oracle %d (%x)", wi, first[wi].n, first[wi].sum, want.n, want.sum)
		}
	}
	if err := s.db.Close(); err != nil {
		return err
	}
	size, err := fileSize(path)
	if err != nil {
		return err
	}
	user := s.fl.userBytes(s.os)

	n := float64(len(s.windows))
	done := float64(c.attempted - c.failed)
	e.res.EndToEnd["ops_per_s"] = done / elapsed
	e.res.EndToEnd["rows_per_s"] = float64(rowsOut) / elapsed
	e.res.EndToEnd["p50_ms"] = e.res.Classes[classWindow].P50Ms
	e.res.EndToEnd["space_amp"] = float64(size) / float64(user)
	e.res.PerLayer["pager.pages_per_op"] = float64(cycleIO.PageReads) / n
	e.res.PerLayer["pager.seeks_per_op"] = float64(cycleIO.Seeks) / n
	e.res.Info["rows"] = len(s.os)
	e.res.Info["distinct_windows"] = len(s.windows)
	e.res.Info["layout"] = layoutN4
	e.res.Info["cache_pages"] = 0
	e.res.Info["table_pages"] = size / pageSize
	e.res.Info["user_bytes"] = user
	e.res.Info["clients"] = 1

	if e.tr != nil {
		wheres := make([]string, len(s.windows))
		for i, w := range s.windows {
			wheres[i] = w.where()
		}
		return probeLayers(e, path, probeSpec{
			table: "Traces", fields: fields, wheres: wheres, class: classWindow,
		})
	}
	return nil
}
