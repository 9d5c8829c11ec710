package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	rs "rodentstore"
	"rodentstore/internal/vfs"
)

const pageSize = 1024 // the paper's page size

// flushPolicy is the same on both sides of any comparison and is recorded in
// every result.
const flushPolicy = "DurableInserts on the writing workloads: WAL group commit (default), real fsync through vfs.OS; checkpoints by the txn manager's default size/interval policy"

// scale fixes the input sizes. "full" is what BENCHMARK.json runs; "smoke"
// is the same code on tiny inputs for the tests.
type scale struct {
	Name           string `json:"name"`
	WindowRows     int    `json:"window_rows"`
	WindowDistinct int    `json:"window_distinct"`
	ScanRows       int    `json:"scan_rows"`
	MacroRows      int    `json:"macro_rows"`
	QuerySet       int    `json:"query_set"`  // distinct ranges / lookup keys
	SetupReps      int    `json:"setup_reps"` // set-up is repeated and its median reported
	ProbePages     int    `json:"probe_pages"`
	ProbeOps       int    `json:"probe_ops"`
}

var scales = map[string]scale{
	"full": {
		Name: "full", WindowRows: 600_000, WindowDistinct: 2048, ScanRows: 600_000, MacroRows: 100_000,
		QuerySet: 256, SetupReps: 3, ProbePages: 4096, ProbeOps: 200,
	},
	"smoke": {
		Name: "smoke", WindowRows: 20_000, WindowDistinct: 32, ScanRows: 6_000, MacroRows: 3_000,
		QuerySet: 16, SetupReps: 1, ProbePages: 256, ProbeOps: 10,
	},
}

// result is one workload's run.
type result struct {
	Workload  string                    `json:"workload"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Traced    bool                      `json:"traced"`
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	FailRatio float64                   `json:"fail_ratio"`
	EndToEnd  map[string]float64        `json:"end_to_end"`
	PerLayer  map[string]float64        `json:"per_layer"`
	Classes   map[string]latencySummary `json:"classes"`
	Info      map[string]any            `json:"info"`
	Errors    map[string]int            `json:"errors,omitempty"`
	Mismatch  []string                  `json:"mismatches,omitempty"`
}

// env is what a workload runs in.
type env struct {
	seed    int64
	seconds time.Duration
	scale   scale
	dir     string
	tr      *tracer // nil: tracing off
	fs      *countFS
	res     *result
	// dataIO is what the page file saw during the timed phase (noteIO).
	dataIO ioSnapshot
}

func newEnv(workload string, seed int64, seconds time.Duration, sc scale, dir string, traced bool) *env {
	e := &env{seed: seed, seconds: seconds, scale: sc, dir: dir}
	if traced {
		e.tr = newTracer()
	}
	e.fs = newCountFS(vfs.OS, e.tr)
	e.res = &result{
		Workload: workload, Seed: seed, Seconds: seconds.Seconds(), Traced: traced, Correct: true,
		EndToEnd: map[string]float64{}, PerLayer: map[string]float64{},
		Classes: map[string]latencySummary{}, Info: map[string]any{}, Errors: map[string]int{},
	}
	return e
}

func (e *env) path(name string) string { return filepath.Join(e.dir, name) }

// mismatch records a failed output check; the run goes on, so that every
// mismatch is reported, and ends with correct=false and a non-zero exit.
func (e *env) mismatch(format string, args ...any) {
	e.res.Correct = false
	if len(e.res.Mismatch) < 20 {
		e.res.Mismatch = append(e.res.Mismatch, fmt.Sprintf(format, args...))
	}
}

// removeDB deletes a database's two files.
func removeDB(path string) {
	os.Remove(path)
	os.Remove(path + ".wal")
}

// repeatSetup builds the workload's state reps times, dropping all but the
// last, and reports the median build time as setup_s: a single set-up is
// allocation-heavy work whose time wanders more than the timed phase's.
func repeatSetup[S any](e *env, reps int, build func() (S, error), drop func(S) error) (S, error) {
	var times []float64
	for i := 1; ; i++ {
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return s, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i >= reps {
			e.res.EndToEnd["setup_s"] = median(times)
			e.res.Info["setup_s_samples"] = times
			return s, nil
		}
		if err := drop(s); err != nil {
			return s, err
		}
	}
}

// client is one closed-loop caller of the public API: it issues its next
// call when the previous one returns. It is used from one goroutine.
type client struct {
	db        *rs.DB
	tr        *tracer
	spans     []span
	lat       map[string][]time.Duration
	errs      map[string]int
	attempted int64
	failed    int64
}

func newClient(db *rs.DB, tr *tracer) *client {
	return &client{db: db, tr: tr, lat: map[string][]time.Duration{}, errs: map[string]int{}}
}

// note books one finished call. A failed call is counted and leaves no
// latency sample.
func (c *client) note(class string, err error, t0, opened, drained, closed time.Time) bool {
	c.attempted++
	if err != nil {
		c.failed++
		msg := err.Error()
		if len(msg) > 120 {
			msg = msg[:120]
		}
		c.errs[class+": "+msg]++
		return false
	}
	c.lat[class] = append(c.lat[class], closed.Sub(t0))
	if c.tr != nil {
		op := c.tr.ids.Add(1)
		root := span{ID: op, Op: op, Layer: "client", Name: class, Start: c.tr.since(t0), End: c.tr.since(closed)}
		if opened.IsZero() { // a call without a cursor
			c.spans = append(c.spans, root)
			return true
		}
		c.spans = append(c.spans, root,
			span{ID: c.tr.ids.Add(1), Parent: op, Op: op, Layer: "client", Name: "open", Start: root.Start, End: c.tr.since(opened)},
			span{ID: c.tr.ids.Add(1), Parent: op, Op: op, Layer: "client", Name: "drain", Start: c.tr.since(opened), End: c.tr.since(drained)},
			span{ID: c.tr.ids.Add(1), Parent: op, Op: op, Layer: "client", Name: "close", Start: c.tr.since(drained), End: root.End})
	}
	return true
}

// query runs one read call: open the cursor, drain it, close it.
func (c *client) query(class string, open func() (*rs.Cursor, error), drain func(*rs.Cursor) error) bool {
	t0 := time.Now()
	cur, err := open()
	opened := time.Now()
	drained := opened
	if err == nil {
		err = drain(cur)
		drained = time.Now()
		cur.Close()
	}
	return c.note(class, err, t0, opened, drained, time.Now())
}

// insert runs one durable Insert.
func (c *client) insert(table string, rows []rs.Row) bool {
	t0 := time.Now()
	err := c.db.Insert(table, rows)
	return c.note(classInsert, err, t0, time.Time{}, time.Time{}, time.Now())
}

// collect folds the clients' samples, failures and spans into the result.
func (e *env) collect(clients ...*client) {
	all := map[string][]time.Duration{}
	for _, c := range clients {
		e.res.Attempted += c.attempted
		e.res.Failed += c.failed
		for class, ds := range c.lat {
			all[class] = append(all[class], ds...)
		}
		for msg, n := range c.errs {
			e.res.Errors[msg] += n
		}
		if e.tr != nil {
			e.tr.add(c.spans...)
		}
	}
	for class, ds := range all {
		s := summarize(ds)
		e.res.Classes[class] = s
		e.res.PerLayer["client."+class+"_p50_ms"] = s.P50Ms
	}
	if e.res.Attempted > 0 {
		e.res.FailRatio = float64(e.res.Failed) / float64(e.res.Attempted)
	}
}

// noteIO books the vfs counts of the timed phase.
func (e *env) noteIO(before, after [2]ioSnapshot) {
	data, log := after[0].sub(before[0]), after[1].sub(before[1])
	e.dataIO = data
	p := e.res.PerLayer
	p["vfs.data_read_ops"] = float64(data.ReadOps)
	p["vfs.data_read_bytes"] = float64(data.ReadBytes)
	p["vfs.data_write_ops"] = float64(data.WriteOps)
	p["vfs.data_write_bytes"] = float64(data.WriteBytes)
	p["vfs.data_syncs"] = float64(data.Syncs)
	p["vfs.log_write_ops"] = float64(log.WriteOps)
	p["vfs.log_write_bytes"] = float64(log.WriteBytes)
	p["vfs.log_syncs"] = float64(log.Syncs)
	p["vfs.read_busy_s"] = (data.ReadBusy + log.ReadBusy).Seconds()
	p["vfs.write_busy_s"] = (data.WriteBusy + log.WriteBusy).Seconds()
	p["vfs.sync_busy_s"] = (data.SyncBusy + log.SyncBusy).Seconds()
	p["txn.checkpoints"] = float64(data.Syncs)
}

func (e *env) ioNow() [2]ioSnapshot { return [2]ioSnapshot{e.fs.data.snapshot(), e.fs.log.snapshot()} }

// fileSize is the page file's size, for space amplification.
func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// mix is the per-row term of the order-independent lat/lon checksum: the
// sum of mix over a result's rows, wrapping, identifies the multiset of
// (lat, lon) pairs whatever order the engine returns them in.
func mix(lat, lon float64) uint64 {
	return math.Float64bits(lat) + math.Float64bits(lon)*0x9E3779B97F4A7C15
}

// tally is a row count with its checksum.
type tally struct {
	n   int64
	sum uint64
}

func (t *tally) add(lat, lon float64) {
	t.n++
	t.sum += mix(lat, lon)
}

// drainBatches drains a cursor with NextBatch, tallying the float columns
// at latCol and lonCol.
func drainBatches(cur *rs.Cursor, latCol, lonCol int, into *tally) error {
	for {
		b, ok, err := cur.NextBatch()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		n := b.Len()
		lats, lons := b.Cols[latCol].Float64s[:n], b.Cols[lonCol].Float64s[:n]
		for i, lat := range lats {
			into.sum += mix(lat, lons[i])
		}
		into.n += int64(n)
	}
}

// drainRows drains a cursor row-at-a-time with Next (the path that pays
// cursor boxing).
func drainRows(cur *rs.Cursor, latCol, lonCol int, into *tally) error {
	for {
		r, ok, err := cur.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		into.add(r[latCol].Float(), r[lonCol].Float())
	}
}

// sortedKeys returns a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
