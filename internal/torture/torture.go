// Package torture is the crash-consistency torture harness: it drives a
// randomized workload (durable inserts, reorganizations, leveled
// compactions, layout changes, drops, checkpoints, scans) against a database
// living on a
// fault-injecting in-memory file system, and at EVERY write and sync the
// store issues it simulates a power cut — snapshotting what a crash at that
// instant would leave on disk, reopening the snapshot through full
// recovery, and verifying it against a model of committed state.
//
// The invariants checked at every kill point:
//
//   - No acknowledged commit is ever lost: every row the model holds must
//     come back from a scan of the recovered snapshot.
//   - Atomicity: the recovered state may additionally contain the one batch
//     whose insert was in flight at the kill point — all of it or none of
//     it, never a partial batch.
//   - No divergence: recovered payloads must match the model exactly, and
//     during reorganizations, compactions or drops the recovered catalog
//     must be wholly old or wholly new — a power cut mid-compaction must
//     never lose acknowledged rows or resurface data from freed runs.
//   - A layout change is all or nothing: the recovered layout is one the
//     harness asked for, and an ordered scan delivers the order that layout
//     advertises — never the new expression over bytes in the old order.
//   - An index answers what a scan answers: the levelled table carries an
//     index on its key (built after its first inserts, now and then dropped
//     and rebuilt; every fold's flip decides how much of it stays valid), and
//     a lookup over a random key range returns exactly the rows the predicate
//     scan returns, which are the committed model's.
//
// Between operations the harness also power-cuts the live store itself and
// reopens it, verifying an exact match. Snapshot kills and live crashes
// both cycle CrashDrop, CrashKeep and CrashTorn (a random sector-aligned
// prefix of every unsynced write survives). A crash whose torn write left
// the page-file header itself torn yields a store that does not open (a
// known limitation, documented in DESIGN.md): such kill points are skipped
// and counted, and such a live crash is replaced by a CrashDrop one.
package torture

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sort"

	"rodentstore"
	"rodentstore/internal/pager"
	"rodentstore/internal/vfs"
)

// dbPath is the database's name inside the fault FS namespace.
const dbPath = "torture.rdnt"

// narrowed is the table whose layouts project a column away.
const narrowed = "delta"

// indexed is the table that carries an index on its key, id.
const indexed = "gamma"

// maxRows caps a table's size: past it the next operation on the table is a
// drop-and-recreate, keeping per-kill-point verification affordable (and
// exercising the drop path).
const maxRows = 400

// Config parameterizes a torture run.
type Config struct {
	// Ops is how many workload operations to run.
	Ops int
	// Seed seeds the workload and the fault FS (same seed, same run).
	Seed int64
}

// Stats counts what a run covered.
type Stats struct {
	Ops, Inserts, Reorgs, Compacts, Alters, Checkpoints, Drops, Scans, Crashes int
	// Indexes is how many times the index on the indexed table was built.
	Indexes int
	// KillPoints is how many write/sync points were crash-checked.
	KillPoints int
	// TornHeaders is how many kill points and live crashes were skipped
	// because the crash tore the page-file header.
	TornHeaders int
}

// crashModes is the cycle kill points and live crashes go through.
var crashModes = [...]vfs.CrashMode{vfs.CrashDrop, vfs.CrashKeep, vfs.CrashTorn}

// tornHeader reports whether err is a store failing to open because its
// header page did not survive a torn write.
func tornHeader(err error) bool {
	var corrupt *pager.ErrCorruptPage
	return errors.As(err, &corrupt) && corrupt.Page == 0
}

// inflight describes the operation whose I/O is currently executing, for the
// atomicity rule at kill points.
type inflight struct {
	kind  string // "" | "insert" | "drop"
	table string
	batch map[int64]string // insert: the not-yet-acknowledged rows
}

type harness struct {
	cfg      Config
	fs       *vfs.Fault
	db       *rodentstore.DB
	rng      *rand.Rand
	probe    *rand.Rand                  // index lookup ranges, apart from rng so checks do not steer the workload
	model    map[string]map[int64]string // table -> id -> payload (committed)
	layouts  map[string][2]string        // table -> the two layouts opAlter flips between; [0] at creation
	cur      inflight
	nextID   int64
	nextKill int
	stats    Stats
	checkErr error // first kill-point verification failure
}

// Run executes one torture run and returns what it covered; a non-nil error
// is a consistency violation (or a workload operation failing outright).
//
//lint:allow deadexport the campaign's entry point, which CI runs through TestTorture
func Run(cfg Config) (Stats, error) {
	if cfg.Ops <= 0 {
		cfg.Ops = 100
	}
	h := &harness{
		cfg:   cfg,
		fs:    vfs.NewFault(cfg.Seed),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		probe: rand.New(rand.NewSource(cfg.Seed + 1)),
		model: make(map[string]map[int64]string),
		layouts: map[string][2]string{
			"alpha": {"rows(alpha)", "orderby[p](alpha)"},
			"beta":  {"cols(beta)", "cols(orderby[p](beta))"},
			// gamma keeps a leveled run hierarchy: tiny blocks (chunk[16])
			// shrink the per-level row targets so tail folds, in-place merges
			// and level promotions all happen within maxRows — kill points
			// land inside every phase of a compaction.
			"gamma": {"leveled[2](chunk[16](rows(gamma)))", "leveled[2](chunk[16](orderby[p](gamma)))"},
			// narrowed's layouts both drop x, so once it has an organized part
			// a layout that needs x is one its stored form cannot serve.
			narrowed: {"project[id,p](" + narrowed + ")", "orderby[p](project[id,p](" + narrowed + "))"},
		},
	}
	if err := h.setup(); err != nil {
		return h.stats, err
	}
	// Every write/sync from here on is a kill point.
	h.fs.OnOp = h.onOp
	err := h.loop()
	h.fs.OnOp = nil
	if err != nil {
		return h.stats, err
	}
	return h.stats, h.db.Close()
}

func (h *harness) setup() error {
	db, err := rodentstore.Create(dbPath, &rodentstore.Options{FS: h.fs, DurableInserts: true})
	if err != nil {
		return err
	}
	h.db = db
	names := h.tableNames()
	for _, name := range names {
		if err := h.createTable(name); err != nil {
			return err
		}
	}
	// Make the empty schema durable: Create/CreateTable write without
	// syncing, and the harness only guarantees what a checkpoint or a
	// durable insert acknowledged.
	if err := h.db.Checkpoint(); err != nil {
		return err
	}
	for _, name := range names {
		h.model[name] = make(map[int64]string)
	}
	return nil
}

func (h *harness) tableNames() []string {
	names := make([]string, 0, len(h.layouts))
	for name := range h.layouts {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// createTable registers the table; the caller adds it to the model only
// once a checkpoint has committed it (kill points before then may recover a
// state without it).
func (h *harness) createTable(name string) error {
	return h.db.CreateTable(name, []rodentstore.Field{
		{Name: "id", Type: rodentstore.Int},
		{Name: "p", Type: rodentstore.String},
		{Name: "x", Type: rodentstore.Int},
	}, h.layouts[name][0])
}

func payloadOf(id int64) string { return fmt.Sprintf("row-%d-%x", id, id*2654435761) }

func (h *harness) loop() error {
	for i := 0; i < h.cfg.Ops; i++ {
		if h.checkErr != nil {
			return h.checkErr
		}
		h.stats.Ops++
		name := h.tableNames()[h.rng.Intn(len(h.layouts))]
		var err error
		switch {
		case len(h.model[name]) > maxRows:
			err = h.opDrop(name)
		default:
			switch p := h.rng.Intn(100); {
			case p < 52:
				err = h.opInsert(name)
			case p < 55:
				err = h.opReindex()
			case p < 67:
				err = h.opScan(name)
			case p < 73:
				err = h.opCompact(name)
			case p < 78:
				err = h.opReorganize(name)
			case p < 84:
				err = h.opAlter(name)
			case p < 90:
				h.stats.Checkpoints++
				err = h.db.Checkpoint()
			case p < 96:
				err = h.opCrashReopen()
			default:
				err = h.opDrop(name)
			}
		}
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	if h.checkErr != nil {
		return h.checkErr
	}
	// Final full verification through a real power cut.
	return h.opCrashReopen()
}

func (h *harness) opInsert(name string) error {
	h.stats.Inserts++
	n := 1 + h.rng.Intn(4)
	batch := make(map[int64]string, n)
	rows := make([]rodentstore.Row, 0, n)
	for j := 0; j < n; j++ {
		id := h.nextID
		h.nextID++
		batch[id] = payloadOf(id)
		rows = append(rows, rodentstore.Row{rodentstore.IntValue(id), rodentstore.StringValue(batch[id]), rodentstore.IntValue(-id)})
	}
	h.cur = inflight{kind: "insert", table: name, batch: batch}
	err := h.db.Insert(name, rows)
	h.cur = inflight{}
	if err != nil {
		return err
	}
	// Acknowledged: the batch is committed state from here on.
	for id, p := range batch {
		h.model[name][id] = p
	}
	if name != indexed {
		return nil
	}
	if have, err := h.db.Indexes(name); err != nil || len(have) > 0 {
		return err
	}
	return h.opReindex() // its first inserts, or a flip dropped it
}

// opReindex drops the indexed table's index, if it has one, and builds it
// again over whatever the table holds now.
func (h *harness) opReindex() error {
	have, err := h.db.Indexes(indexed)
	if err != nil {
		return err
	}
	if len(have) > 0 {
		if err := h.db.DropIndex(indexed, "id"); err != nil {
			return err
		}
	}
	h.stats.Indexes++
	return h.db.CreateIndex(indexed, "id")
}

func (h *harness) opScan(name string) error {
	h.stats.Scans++
	got, err := scanAll(h.db, name)
	if err != nil {
		return err
	}
	if err := diff(h.model[name], got, nil); err != nil {
		return err
	}
	if err := h.checkIndex(h.db, name, got); err != nil {
		return err
	}
	return h.checkLayout(h.db, name)
}

func (h *harness) opReorganize(name string) error {
	h.stats.Reorgs++
	return h.db.Reorganize(name)
}

// opCompact folds the table's tails into its run hierarchy (for gamma's
// leveled layout) or falls back to a full reorganization (alpha, beta) —
// both under live kill points, so every write inside a fold is crash-checked.
func (h *harness) opCompact(name string) error {
	h.stats.Compacts++
	return h.db.Compact(name)
}

// opAlter flips the table to the other of its two layouts, eagerly (the fold
// runs now, under live kill points) or lazily (a later access folds). Now and
// then it first asks the narrowed table for a layout its stored form cannot
// serve, which must be refused with nothing changed.
func (h *harness) opAlter(name string) error {
	h.stats.Alters++
	eager := h.rng.Intn(2) == 0
	if name == narrowed && h.rng.Intn(3) == 0 {
		if err := h.alterUnservable(eager); err != nil {
			return err
		}
	}
	current, err := h.db.LayoutOf(name)
	if err != nil {
		return err
	}
	target := h.layouts[name][0]
	if current == target {
		target = h.layouts[name][1]
	}
	return h.db.AlterLayout(name, target, eager)
}

// alterUnservable gives the narrowed table an organized part (so its stored
// form really has dropped x), then asks for a layout ordered by x. The scan
// that follows checks the rows are intact and the layout is still one of the
// table's two.
func (h *harness) alterUnservable(eager bool) error {
	if err := h.db.Reorganize(narrowed); err != nil {
		return err
	}
	if err := h.db.AlterLayout(narrowed, "orderby[x]("+narrowed+")", eager); err == nil {
		return fmt.Errorf("a layout the stored form cannot serve was accepted (eager=%v)", eager)
	}
	return h.opScan(narrowed)
}

func (h *harness) opDrop(name string) error {
	h.stats.Drops++
	h.cur = inflight{kind: "drop", table: name}
	err := h.db.DropTable(name)
	h.cur = inflight{}
	if err != nil {
		return err
	}
	delete(h.model, name)
	// Recreate immediately. Until the checkpoint commits the new table,
	// kill points may recover a state without it, so it re-enters the model
	// only afterwards.
	if err := h.createTable(name); err != nil {
		return err
	}
	if err := h.db.Checkpoint(); err != nil {
		return err
	}
	h.model[name] = make(map[int64]string)
	return nil
}

// opCrashReopen power-cuts the live store and reopens it through recovery.
// No operation is in flight, so the recovered state must match the model
// exactly. Kill points keep firing during recovery's own writes.
func (h *harness) opCrashReopen() error {
	h.stats.Crashes++
	live := h.fs
	open := func() (*rodentstore.DB, error) {
		return rodentstore.OpenWithOptions(dbPath, &rodentstore.Options{FS: h.fs, DurableInserts: true})
	}
	var db *rodentstore.DB
	var err error
	if mode := crashModes[h.stats.Crashes%len(crashModes)]; mode == vfs.CrashTorn {
		// A torn crash draws per-write prefixes: the store reopens on the
		// snapshot of one, unless its header is the write that tore.
		h.fs = vfs.NewFaultFromImages(h.cfg.Seed+int64(h.stats.Crashes), live.SnapshotCrash(mode))
		h.fs.OnOp = live.OnOp
		if db, err = open(); tornHeader(err) {
			h.stats.TornHeaders++
			h.fs = live
			live.Crash(vfs.CrashDrop)
			db, err = open()
		}
	} else {
		live.Crash(mode)
		db, err = open()
	}
	if err != nil {
		return fmt.Errorf("reopen after crash: %w", err)
	}
	h.db = db
	for _, name := range h.tableNames() {
		if _, ok := h.model[name]; !ok {
			continue
		}
		got, err := scanAll(h.db, name)
		if err != nil {
			return fmt.Errorf("scan %s after crash: %w", name, err)
		}
		if err := diff(h.model[name], got, nil); err != nil {
			return fmt.Errorf("table %s after crash: %w", name, err)
		}
		if err := h.checkIndex(h.db, name, got); err != nil {
			return fmt.Errorf("table %s after crash: %w", name, err)
		}
		if err := h.checkLayout(h.db, name); err != nil {
			return fmt.Errorf("table %s after crash: %w", name, err)
		}
	}
	return nil
}

// onOp is the kill-point hook: at every write and sync, verify the state a
// power cut at this instant would recover to.
func (h *harness) onOp(op vfs.Op) {
	if h.checkErr != nil {
		return
	}
	if op.Kind != vfs.OpWrite && op.Kind != vfs.OpSync {
		return
	}
	mode := crashModes[h.nextKill%len(crashModes)]
	h.nextKill++
	h.stats.KillPoints++
	imgs := h.fs.SnapshotCrash(mode)
	if err := h.verifySnapshot(imgs); mode == vfs.CrashTorn && tornHeader(err) {
		h.stats.TornHeaders++
	} else if err != nil {
		h.checkErr = fmt.Errorf("kill point at op %d (%v %s off=%d len=%d, mode=%d): %w",
			op.N, op.Kind, op.Path, op.Off, op.Len, mode, err)
	}
}

// verifySnapshot opens the crash image through full recovery and checks the
// committed-state invariants.
func (h *harness) verifySnapshot(imgs map[string]vfs.Image) error {
	snapFS := vfs.NewFaultFromImages(h.cfg.Seed, imgs)
	db, err := rodentstore.OpenWithOptions(dbPath, &rodentstore.Options{FS: snapFS, DurableInserts: true})
	if err != nil {
		return fmt.Errorf("recovery failed: %w", err)
	}
	defer db.Close()
	live := make(map[string]bool)
	for _, t := range db.Tables() {
		live[t] = true
	}
	for _, name := range h.tableNames() {
		want, ok := h.model[name]
		if !ok {
			continue // mid-recreate; nothing committed to check
		}
		if !live[name] {
			if h.cur.kind == "drop" && h.cur.table == name {
				continue // the in-flight drop may or may not have committed
			}
			return fmt.Errorf("table %s missing after recovery", name)
		}
		got, err := scanAll(db, name)
		if err != nil {
			return fmt.Errorf("scan %s: %w", name, err)
		}
		var pending map[int64]string
		if h.cur.kind == "insert" && h.cur.table == name {
			pending = h.cur.batch
		}
		if err := diff(want, got, pending); err != nil {
			return fmt.Errorf("table %s: %w", name, err)
		}
		if err := h.checkIndex(db, name, got); err != nil {
			return fmt.Errorf("table %s: %w", name, err)
		}
		if err := h.checkLayout(db, name); err != nil {
			return fmt.Errorf("table %s: %w", name, err)
		}
	}
	return nil
}

// checkLayout enforces the alter invariants on one table of a live or
// recovered store: its layout is one of the two the harness ever asks for,
// and when that layout advertises an order (only p here), a scan asking for
// it comes back sorted — the scan streams if it trusts the stored order, so
// a new expression over bytes still in the old order fails here.
func (h *harness) checkLayout(db *rodentstore.DB, name string) error {
	expr, err := db.LayoutOf(name)
	if err != nil {
		return err
	}
	if pair := h.layouts[name]; expr != pair[0] && expr != pair[1] {
		return fmt.Errorf("layout %q is none the harness asked for", expr)
	}
	orders, err := db.OrderList(name)
	if err != nil {
		return err
	}
	for _, order := range orders {
		cur, err := db.Scan(name, rodentstore.Query{Fields: []string{"p"}, OrderBy: order})
		if err != nil {
			return fmt.Errorf("scan ordered by %s: %w", order, err)
		}
		rows, err := cur.All()
		cur.Close()
		if err != nil {
			return fmt.Errorf("scan ordered by %s: %w", order, err)
		}
		for i := 1; i < len(rows); i++ {
			if rows[i-1][0].Str() > rows[i][0].Str() {
				return fmt.Errorf("layout %s: scan ordered by %s is not sorted at row %d", expr, order, i)
			}
		}
	}
	return nil
}

// checkIndex holds a lookup through the indexed table's index, when the
// store has one, to the predicate scan and to scanned, the table's rows the
// caller already held to the committed model: over a random key range all
// three agree.
func (h *harness) checkIndex(db *rodentstore.DB, name string, scanned map[int64]string) error {
	if name != indexed {
		return nil
	}
	if have, err := db.Indexes(name); err != nil || len(have) == 0 {
		return err
	}
	// The table holds recent ids only: it is dropped once it grows past
	// maxRows, and other tables' inserts interleave with its own.
	lo := h.nextID - h.probe.Int63n(min(h.nextID, 4*maxRows)+1)
	hi := lo + 1 + h.probe.Int63n(64)
	q := rodentstore.Query{Where: fmt.Sprintf("id >= %d and id < %d", lo, hi)}
	byIndex, err := collect(db.IndexScan(name, q, "id"))
	if err != nil {
		return fmt.Errorf("index scan %s: %w", q.Where, err)
	}
	byScan, err := collect(db.Scan(name, q))
	if err != nil {
		return fmt.Errorf("scan %s: %w", q.Where, err)
	}
	want := maps.Clone(scanned)
	maps.DeleteFunc(want, func(id int64, _ string) bool { return id < lo || id >= hi })
	if !maps.Equal(byIndex, want) || !maps.Equal(byScan, want) {
		return fmt.Errorf("%s: index scan %d rows, predicate scan %d, committed %d", q.Where, len(byIndex), len(byScan), len(want))
	}
	return nil
}

// scanAll drains one table into an id -> payload map.
func scanAll(db *rodentstore.DB, name string) (map[int64]string, error) {
	return collect(db.Scan(name, rodentstore.Query{}))
}

// collect drains a cursor of (id, p, ...) rows into an id -> payload map.
func collect(cur *rodentstore.Cursor, err error) (map[int64]string, error) {
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	out := make(map[int64]string)
	for {
		row, ok, err := cur.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		id := row[0].Int()
		if _, dup := out[id]; dup {
			return nil, fmt.Errorf("row id %d returned twice", id)
		}
		out[id] = row[1].Str()
	}
}

// diff enforces the committed-state invariants: every model row present with
// the right payload, and any extra rows exactly equal to the pending batch
// (or absent entirely).
func diff(want, got, pending map[int64]string) error {
	for id, p := range want {
		gp, ok := got[id]
		if !ok {
			return fmt.Errorf("acknowledged row %d lost", id)
		}
		if gp != p {
			return fmt.Errorf("row %d diverged: got %q, want %q", id, gp, p)
		}
	}
	var extra []int64
	for id := range got {
		if _, ok := want[id]; !ok {
			extra = append(extra, id)
		}
	}
	if len(extra) == 0 {
		return nil
	}
	if pending == nil {
		return fmt.Errorf("%d rows present that were never committed (first: %d)", len(extra), extra[0])
	}
	// Atomicity: extra rows must be exactly the in-flight batch.
	if len(extra) != len(pending) {
		return fmt.Errorf("partial in-flight batch recovered: %d of %d rows", len(extra), len(pending))
	}
	for _, id := range extra {
		p, ok := pending[id]
		if !ok {
			return fmt.Errorf("row %d present but neither committed nor in flight", id)
		}
		if got[id] != p {
			return fmt.Errorf("in-flight row %d diverged: got %q, want %q", id, got[id], p)
		}
	}
	return nil
}
