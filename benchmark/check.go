package main

// Oracles: what each query must return, computed from the generated
// observations alone, without the engine.

import (
	"fmt"
	"math"
	"sort"

	rs "rodentstore"
	"rodentstore/internal/vfs"
)

// windowOracle tallies every window by one pass over the rows: windows are
// bucketed on a coarse grid so each row is tested only against the windows
// that overlap its bucket.
func windowOracle(os []obs, ws []window) []tally {
	const g = 16
	cell := func(lat, lon float64) (int, int) {
		i := int((lat - minLat) / (maxLat - minLat) * g)
		j := int((lon - minLon) / (maxLon - minLon) * g)
		return min(max(i, 0), g-1), min(max(j, 0), g-1)
	}
	var buckets [g][g][]int
	for wi, w := range ws {
		i0, j0 := cell(w.loLat, w.loLon)
		i1, j1 := cell(w.hiLat, w.hiLon)
		for i := i0; i <= i1; i++ {
			for j := j0; j <= j1; j++ {
				buckets[i][j] = append(buckets[i][j], wi)
			}
		}
	}
	out := make([]tally, len(ws))
	for _, o := range os {
		i, j := cell(o.lat, o.lon)
		for _, wi := range buckets[i][j] {
			if ws[wi].holds(o) {
				out[wi].add(o.lat, o.lon)
			}
		}
	}
	return out
}

// rangeOracle answers time ranges over rows in arrival order (t increasing)
// from a prefix sum of the checksum.
type rangeOracle struct {
	os     []obs
	prefix []uint64 // prefix[i] = sum of mix over os[:i]
}

func newRangeOracle(os []obs) *rangeOracle {
	p := make([]uint64, len(os)+1)
	for i, o := range os {
		p[i+1] = p[i] + mix(o.lat, o.lon)
	}
	return &rangeOracle{os, p}
}

func (r *rangeOracle) tally(q trange) tally {
	lo := sort.Search(len(r.os), func(i int) bool { return r.os[i].t >= q.lo })
	hi := sort.Search(len(r.os), func(i int) bool { return r.os[i].t >= q.hi })
	return tally{int64(hi - lo), r.prefix[hi] - r.prefix[lo]}
}

// latBelow tallies the rows with lat < x (the filter workloads' predicate).
func latBelow(os []obs, x float64) tally {
	var t tally
	for _, o := range os {
		if o.lat < x {
			t.add(o.lat, o.lon)
		}
	}
	return t
}

// groups is the GROUP BY id oracle: per car, count and the sum of lat taken
// in arrival order.
type groups struct {
	n   []int64
	lat []float64
}

func newGroups(cars int) *groups { return &groups{make([]int64, cars), make([]float64, cars)} }

func (g *groups) add(os []obs) {
	for _, o := range os {
		g.n[o.car]++
		g.lat[o.car] += o.lat
	}
}

func (g *groups) total() int64 {
	var n int64
	for _, c := range g.n {
		n += c
	}
	return n
}

// aggRow is one output row of the agg class: id, count, avg(lat).
type aggRow struct {
	id  string
	n   int64
	avg float64
}

func aggRows(rows []rs.Row) []aggRow {
	out := make([]aggRow, len(rows))
	for i, r := range rows {
		out[i] = aggRow{r[0].Str(), r[1].Int(), r[2].Float()}
	}
	return out
}

// check compares an aggregate result with the oracle. Counts must be equal;
// averages may differ in the last bits, because the engine sums per block
// and merges, so they are compared to 1e-9 relative.
func (g *groups) check(ids []string, got []aggRow) error {
	want := 0
	for _, c := range g.n {
		if c > 0 {
			want++
		}
	}
	if len(got) != want {
		return fmt.Errorf("agg: %d groups, want %d", len(got), want)
	}
	byID := make(map[string]int, len(ids))
	for i, id := range ids {
		byID[id] = i
	}
	for _, r := range got {
		i, ok := byID[r.id]
		if !ok {
			return fmt.Errorf("agg: unknown group %q", r.id)
		}
		if r.n != g.n[i] {
			return fmt.Errorf("agg: group %s count %d, want %d", r.id, r.n, g.n[i])
		}
		avg := g.lat[i] / float64(g.n[i])
		if math.Abs(r.avg-avg) > 1e-9*math.Abs(avg) {
			return fmt.Errorf("agg: group %s avg %v, want %v", r.id, r.avg, avg)
		}
	}
	return nil
}

// sameRow reports whether a full-width result row is the observation.
func sameRow(r rs.Row, o obs, id string) bool {
	return len(r) == 4 && r[0].Int() == o.t && r[1].Float() == o.lat && r[2].Float() == o.lon && r[3].Str() == id
}

// durabilityOK runs a short durable insert script on the in-memory fault
// file system, cuts the power so that every write not yet synced is lost,
// reopens from what survived and looks for every acknowledged row. Killing
// a process would leave the operating system's cache intact; this is the
// test that discards it.
func durabilityOK(seed int64) error {
	const path, batches, rows = "durability.rdnt", 12, 64
	fs := vfs.NewFault(seed)
	db, err := rs.Create(path, &rs.Options{PageSize: pageSize, DurableInserts: true, FS: fs})
	if err != nil {
		return err
	}
	if err := db.CreateTable("Obs", schema, layoutIngest); err != nil {
		return err
	}
	// The table's creation is made durable by a checkpoint; the inserts
	// after it must survive on the strength of the log alone.
	if err := db.Checkpoint(); err != nil {
		return err
	}
	fl := newFleet(seed, 8)
	var acked []obs
	for b := 0; b < batches; b++ {
		os := fl.take(nil, rows)
		if err := db.Insert("Obs", fl.rows(os)); err != nil {
			return fmt.Errorf("durability: insert %d: %w", b, err)
		}
		acked = append(acked, os...)
	}
	// Power cut: no Close, no checkpoint; un-synced writes are dropped.
	images := fs.SnapshotCrash(vfs.CrashDrop)
	back, err := rs.OpenWithOptions(path, &rs.Options{DurableInserts: true, FS: vfs.NewFaultFromImages(seed, images)})
	if err != nil {
		return fmt.Errorf("durability: reopen: %w", err)
	}
	defer back.Close()
	cur, err := back.Scan("Obs", rs.Query{})
	if err != nil {
		return fmt.Errorf("durability: scan: %w", err)
	}
	defer cur.Close()
	var got tally
	if err := drainBatches(cur, 1, 2, &got); err != nil {
		return fmt.Errorf("durability: scan: %w", err)
	}
	var want tally
	for _, o := range acked {
		want.add(o.lat, o.lon)
	}
	if got != want {
		return fmt.Errorf("durability: %d rows (checksum %x) after the power cut, %d acknowledged (checksum %x)", got.n, got.sum, want.n, want.sum)
	}
	return nil
}
