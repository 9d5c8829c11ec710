// Package table is RodentStore's storage backend (paper §2, §4): it renders
// compiled layout plans into segments on disk and serves the access-method
// API of §4.1 — scan with optional projection/predicate/order, positional
// and multidimensional getElement, cost estimation, and order_list.
//
// A table's stored form is a set of aligned vertical partitions (segments)
// over the final row stream produced by the layout pipeline. Newly inserted
// rows accumulate as unorganized tail batches ("reorganize only new data",
// paper §5); Reorganize folds them into the main layout, eagerly or lazily
// on next access.
package table

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rodentstore/internal/algebra"
	"rodentstore/internal/catalog"
	"rodentstore/internal/layout"
	"rodentstore/internal/pager"
	"rodentstore/internal/segment"
	"rodentstore/internal/txn"
	"rodentstore/internal/value"
)

// ReorgMode selects when a layout change is applied (paper §5).
type ReorgMode string

// Reorganization modes.
const (
	// ReorgEager rewrites every object immediately.
	ReorgEager ReorgMode = "eager"
	// ReorgLazy marks the table and rewrites on next access.
	ReorgLazy ReorgMode = "lazy"
)

// Engine is the storage backend over one page file.
type Engine struct {
	file *pager.File
	cat  *catalog.Catalog
	// mgr is the durability manager (WAL logging, checkpoints, recovery
	// hooks); nil runs the engine without a log. Table-level mutual
	// exclusion does not depend on it — see tableLocks.
	mgr *txn.Manager
	// Source is where readers fetch pages: the pager itself (cold, exact
	// page counts) or a buffer.Pool wrapped around it (warm).
	Source segment.PageSource
	// SyncInserts makes Insert durable: the tail is WAL-logged as one tail
	// record (catalog.EncodeTailAppend: its segment entries and stream
	// bytes), and Insert returns only after the (group-committed) fsync. The
	// catalog is updated in memory only; recovery writes each logged tail
	// to a fresh extent and appends it, so an acknowledged insert survives a
	// crash without the publish phase ever rewriting the whole catalog. It
	// also makes every flip buffered (flip). Requires a durability manager;
	// ignored without one.
	SyncInserts bool

	// tableMu guards tableLocks, the engine-owned table-level locks every
	// catalog read-modify-write and every cursor construction runs under
	// (withLock). They are intrinsic to the engine: foreground operations
	// and the background merge pool exclude each other with or without a
	// durability manager.
	tableMu    sync.Mutex
	tableLocks map[string]*tableLock

	mu    sync.Mutex
	specs map[string]*layout.Spec // compile cache keyed by expr text

	// snapMu guards insertSnaps, the per-table cache of the layout/schema
	// snapshot Insert's prepare phase runs against. A hit skips the
	// shared-lock round and schema rebuild per insert; staleness is caught
	// by publish-time revalidation (the entry is dropped and the insert
	// retried).
	snapMu      sync.Mutex
	insertSnaps map[string]insertSnapshot

	// merge is the background tail-merge worker (nil until EnableAutoMerge).
	mergeMu sync.Mutex
	merge   *merger

	// freeMu guards the deferred-free queue. In durable (SyncInserts) mode,
	// extents a catalog update stopped referencing are not freed inline:
	// until the update is durable, a crash rolls the catalog back to a
	// version that still references them, and a reallocated extent
	// rewritten since would corrupt that old catalog's data. Queued extents
	// are staged when a checkpoint begins and freed once it has synced the
	// file and truncated the log (the AfterCheckpoint hook), so the worst
	// crash outcome is a leaked extent.
	freeMu        sync.Mutex
	deferredFrees []pager.Extent // queued, awaiting a checkpoint
	stagedFrees   []pager.Extent // covered by the in-progress checkpoint
	// queuedPages counts the pages free() queued since the last checkpoint
	// began (backlog). The catalog's own old extent is left out: every
	// checkpoint's flush queues one again, so counting it could make each
	// commit due for a checkpoint.
	queuedPages uint64

	// Fold counters, moved only by fold (see fold.go; the gating benchmark
	// reports them as table.merges/merge_rows/merge_bytes).
	statMerges     atomic.Int64
	statMergeRows  atomic.Int64
	statMergeBytes atomic.Int64
}

// NewEngine creates an engine over an open page file and catalog. mgr may
// be nil to run without a log (no durable inserts, no deferred frees). With
// a manager, the engine hooks the catalog into its checkpoint/recovery
// protocol: buffered catalog updates flush before every checkpoint, and
// logged tail records replay during recovery — so create the engine before
// calling the manager's Recover.
func NewEngine(file *pager.File, cat *catalog.Catalog, mgr *txn.Manager) *Engine {
	e := &Engine{
		file:        file,
		cat:         cat,
		mgr:         mgr,
		Source:      file,
		tableLocks:  make(map[string]*tableLock),
		specs:       make(map[string]*layout.Spec),
		insertSnaps: make(map[string]insertSnapshot),
	}
	if mgr != nil {
		// Stage the deferred-free queue before the catalog flush: everything
		// queued by then had its catalog update already written, so this
		// checkpoint's file sync makes those updates durable and the staged
		// extents safe to free afterwards. Extents queued mid-checkpoint wait
		// for the next one.
		mgr.BeforeCheckpoint = func() error {
			e.freeMu.Lock()
			e.stagedFrees = append(e.stagedFrees, e.deferredFrees...)
			e.deferredFrees, e.queuedPages = nil, 0
			e.freeMu.Unlock()
			return cat.Flush()
		}
		mgr.AfterCheckpoint = e.freeStaged
		mgr.Backlog = e.backlog
		mgr.OnRecover = cat.ApplyTailAppend
		cat.DeferFree = e.deferFree
	}
	return e
}

// deferFree queues an extent to be freed by the next checkpoint when the
// engine runs durably; without durability there is no crash state to guard,
// so it reports false and the caller frees inline.
func (e *Engine) deferFree(ext pager.Extent) bool {
	if !e.durable() {
		return false
	}
	e.freeMu.Lock()
	e.deferredFrees = append(e.deferredFrees, ext)
	e.freeMu.Unlock()
	return true
}

// backlog reports the bytes of the extents free() queued for the next
// checkpoint (the Manager's Backlog hook), so folds that only queue frees
// still bring that checkpoint on.
func (e *Engine) backlog() int64 {
	e.freeMu.Lock()
	defer e.freeMu.Unlock()
	return int64(e.queuedPages) * int64(e.file.PageSize())
}

// freeStaged releases the extents staged by the checkpoint that just made
// their catalog un-references durable (the Manager's AfterCheckpoint hook).
func (e *Engine) freeStaged() error {
	e.freeMu.Lock()
	staged := e.stagedFrees
	e.stagedFrees = nil
	e.freeMu.Unlock()
	for i, ext := range staged {
		if err := e.file.FreeRun(ext.Start, ext.Count); err != nil {
			// Re-queue what remains: freeing is retried by the next
			// checkpoint; losing track of it would leak the pages for good.
			e.freeMu.Lock()
			e.stagedFrees = append(e.stagedFrees, staged[i:]...)
			e.freeMu.Unlock()
			return err
		}
	}
	return nil
}

// checkpoint makes a flip durable before its caller returns, in durable
// mode: it persists the buffered record and drains the frees the flip
// queued. A flip that moves the layout must call it before releasing the
// table lock, so no tail rendered under the new layout is logged while the
// persisted catalog still holds the old one.
func (e *Engine) checkpoint() error {
	if !e.durable() {
		return nil
	}
	return e.mgr.Checkpoint()
}

// durable reports whether inserts and catalog flips go through the WAL.
func (e *Engine) durable() bool { return e.SyncInserts && e.mgr != nil }

// lockMode is how withLock takes a table's lock.
type lockMode bool

const (
	// shared admits concurrent readers of the catalog record and its extents.
	shared lockMode = false
	// exclusive admits one holder: anything that replaces the record or
	// frees extents.
	exclusive lockMode = true
)

// tableLock is one table's shared/exclusive lock. Readers are admitted
// whenever no writer holds it: a reader does not queue behind a writer that
// is itself still waiting, so what a scan waits for beside a busy writer is
// one critical section, never a fold plus the readers ahead of it. That
// rule alone would let two overlapping readers starve a writer forever, so
// the bypass is bounded: once maxReaderBypass readers have overtaken a
// waiting writer, new readers wait for it. There is no timeout.
type tableLock struct {
	mu      sync.Mutex
	free    sync.Cond // signaled on every release; L is &mu
	readers int
	writer  bool
	waiting int // writers waiting
	passed  int // readers admitted past a waiting writer since the last write
}

// maxReaderBypass is far above what a reader in a closed loop beside a
// writer reaches (a writer there gets in within a few scans), so it only
// engages under readers that leave no gap.
const maxReaderBypass = 64

func (l *tableLock) acquire(exclusive bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !exclusive {
		for l.writer || (l.waiting > 0 && l.passed >= maxReaderBypass) {
			l.free.Wait()
		}
		l.readers++
		if l.waiting > 0 {
			l.passed++
		}
		return
	}
	l.waiting++
	for l.writer || l.readers > 0 {
		l.free.Wait()
	}
	l.waiting--
	l.writer, l.passed = true, 0
}

func (l *tableLock) release(exclusive bool) {
	l.mu.Lock()
	if exclusive {
		l.writer = false
	} else {
		l.readers--
	}
	l.mu.Unlock()
	l.free.Broadcast()
}

// withLock runs fn under the named table's lock. It is the outermost lock of
// the hierarchy and is never nested — fn must not call withLock again.
func (e *Engine) withLock(name string, mode lockMode, fn func() error) error {
	e.tableMu.Lock()
	lk := e.tableLocks[name]
	if lk == nil {
		lk = &tableLock{}
		lk.free.L = &lk.mu
		e.tableLocks[name] = lk
	}
	e.tableMu.Unlock()
	lk.acquire(bool(mode))
	defer lk.release(bool(mode))
	return fn()
}

// compile resolves a layout expression against the current catalog schemas,
// with caching.
func (e *Engine) compile(exprText string) (*layout.Spec, error) {
	e.mu.Lock()
	if spec, ok := e.specs[exprText]; ok {
		e.mu.Unlock()
		return spec, nil
	}
	e.mu.Unlock()
	spec, err := e.compileAs(exprText, "", nil)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.specs[exprText] = spec
	e.mu.Unlock()
	return spec, nil
}

// compileAs compiles exprText, uncached, with table name taken to have the
// given schema instead of its catalog one (nil: no substitution): a table
// being created has no catalog schema yet, and one whose stored form dropped
// attributes is re-rendered from what it stores.
func (e *Engine) compileAs(exprText, name string, as *value.Schema) (*layout.Spec, error) {
	expr, err := algebra.Parse(exprText)
	if err != nil {
		return nil, err
	}
	schemas, err := e.cat.Schemas()
	if err != nil {
		return nil, err
	}
	if as != nil {
		schemas[name] = as
	}
	return layout.Compile(expr, schemas)
}

// invalidateSpecCache drops cached plans (schemas changed).
func (e *Engine) invalidateSpecCache() {
	e.mu.Lock()
	e.specs = make(map[string]*layout.Spec)
	e.mu.Unlock()
	e.dropInsertSnap("")
}

// dropInsertSnap forgets the cached insert snapshot of one table ("" for
// all).
func (e *Engine) dropInsertSnap(name string) {
	e.snapMu.Lock()
	if name == "" {
		e.insertSnaps = make(map[string]insertSnapshot)
	} else {
		delete(e.insertSnaps, name)
	}
	e.snapMu.Unlock()
}

// Create registers a table with its logical schema and layout expression.
// Nothing is rendered until Load.
func (e *Engine) Create(name string, schema *value.Schema, layoutExpr string) error {
	return e.withLock(name, exclusive, func() error {
		if e.cat.Has(name) {
			return fmt.Errorf("table: %q already exists", name)
		}
		// Validate the layout against a catalog view that includes the new
		// table.
		spec, err := e.compileAs(layoutExpr, name, schema)
		if err != nil {
			return err
		}
		if spec.Table != name {
			return fmt.Errorf("table: layout %q is for table %q, not %q", layoutExpr, spec.Table, name)
		}
		e.invalidateSpecCache()
		return e.cat.Put(&catalog.Table{
			Name:       name,
			Fields:     catalog.FieldsOf(schema),
			LayoutExpr: spec.Expr,
		})
	})
}

// Drop removes a table and frees its extents and index trees. It is flip's
// one sibling: the same catalog update → free → checkpoint ordering, with
// the record deleted instead of replaced.
func (e *Engine) Drop(name string) error {
	return e.withLock(name, exclusive, func() error {
		tab, err := e.cat.Get(name)
		if err != nil {
			return err
		}
		exts := e.reclaimable(tab.Parts(), tab.Indexes)
		e.invalidateSpecCache()
		if err := e.cat.Delete(name); err != nil {
			return err
		}
		if err := e.free(exts); err != nil {
			return err
		}
		return e.checkpoint()
	})
}

// Load bulk-loads rows into an empty table, rendering the layout. Rows must
// match the logical schema. Use Insert to add data afterwards.
func (e *Engine) Load(name string, rows []value.Row) error {
	return e.withLock(name, exclusive, func() error {
		tab, err := e.cat.Get(name)
		if err != nil {
			return err
		}
		if tab.RowCount > 0 {
			return fmt.Errorf("table: %q already loaded (%d rows); use Insert or Reorganize", name, tab.RowCount)
		}
		schema, err := tab.Schema()
		if err != nil {
			return err
		}
		for i, r := range rows {
			if err := schema.Validate(r); err != nil {
				return fmt.Errorf("table: row %d: %w", i, err)
			}
		}
		rel, err := rowsRelation(schema, rows)
		if err != nil {
			return err
		}
		// Render into a private copy; the flip swaps it in atomically so a
		// concurrent checkpoint flush never encodes a half-rendered table.
		work := *tab
		out, err := e.render(&work, rel)
		if err != nil {
			return err
		}
		if err := e.installMain(tab, &work, out); err != nil {
			return err
		}
		return e.checkpoint()
	})
}

// insertRetries bounds optimistic staged-insert attempts before falling
// back to preparing under the exclusive lock (only a concurrent AlterLayout
// racing every attempt can exhaust them).
const insertRetries = 4

// Insert appends rows as an unorganized tail batch. The main layout is not
// touched (the "reorganize only new data" strategy of §5); call Reorganize
// to merge, or EnableAutoMerge to have tails folded in the background.
//
// Insert is staged: validation, the per-row pipeline steps and the segment
// block encoding all run with no table lock held (concurrent inserters to
// the same table overlap this work); only the publish phase — extent
// allocation, page writes, tail append and catalog put — runs under a short
// exclusive lock. If the table's layout changes between the two phases the
// stage is thrown away and re-prepared.
//
// With SyncInserts, durability also stays off the lock: the published
// tail's record is logged to the WAL and fsync'd (group commit) after the
// lock is released, so concurrent inserters' fsyncs coalesce. Insert then
// returns only once the batch is redo-durable. Because records are logged
// after the lock drops, two batches published in one order can commit in
// the other; recovery then rebuilds the tails in commit order — a
// permutation of unorganized batches, never a loss.
func (e *Engine) Insert(name string, rows []value.Row) error {
	if len(rows) == 0 {
		return nil
	}
	for attempt := 0; ; attempt++ {
		exclusive := attempt >= insertRetries // guaranteed-progress fallback
		pub, err := e.insertOnce(name, rows, exclusive)
		if err != nil {
			return err
		}
		if pub.ok {
			if pub.streams != nil {
				record := catalog.EncodeTailAppend(name, pub.batch, pub.rows, pub.streams)
				if err := e.mgr.Commit(pub.id, record); err != nil {
					return err
				}
			}
			e.maybeAutoMerge(name, pub.mergeNeeded)
			return nil
		}
		e.dropInsertSnap(name) // layout moved; re-snapshot on retry
	}
}

// insertSnapshot is the catalog state a staged insert was prepared against.
type insertSnapshot struct {
	layoutExpr string
	schema     *value.Schema
}

// stagedTail is a fully encoded tail batch, ready to publish.
type stagedTail struct {
	writers []*segment.Writer
	defs    []layout.SegmentDef
	rows    int64
}

// published is the outcome of one publish phase: whether it installed the
// tail (ok=false means the layout moved and the caller must re-prepare),
// whether the merge policy fired, and — in SyncInserts mode — what the
// tail record is encoded from (the batch, its row count and the writers'
// streams) and the commit id its catalog update got, for Manager.Commit.
type published struct {
	ok          bool
	mergeNeeded bool
	id          uint64
	batch       []catalog.SegmentEntry
	rows        int64
	streams     [][]byte
}

// insertOnce runs one prepare/publish round. With exclusivePrepare the
// whole round holds the exclusive table lock (the snapshot cannot go stale);
// otherwise prepare runs lock-free and publish revalidates the layout,
// returning ok=false when it moved. In SyncInserts mode the tail record
// comes back to the caller, to be logged after the lock is released.
func (e *Engine) insertOnce(name string, rows []value.Row, exclusivePrepare bool) (pub published, err error) {
	if exclusivePrepare {
		err = e.withLock(name, exclusive, func() error {
			tab, err := e.cat.Get(name)
			if err != nil {
				return err
			}
			schema, err := tab.Schema()
			if err != nil {
				return err
			}
			snap := insertSnapshot{layoutExpr: tab.LayoutExpr, schema: schema}
			st, err := e.prepareTail(snap, rows)
			if err != nil {
				return err
			}
			pub, err = e.publishTail(name, snap.layoutExpr, st, false)
			return err
		})
		return pub, err
	}

	snap, err := e.snapshotForInsert(name)
	if err != nil {
		return published{}, err
	}
	st, err := e.prepareTail(snap, rows)
	if err != nil {
		return published{}, err
	}
	err = e.withLock(name, exclusive, func() error {
		pub, err = e.publishTail(name, snap.layoutExpr, st, true)
		return err
	})
	return pub, err
}

// snapshotForInsert returns the table's layout and schema for the prepare
// phase: from the per-table cache when possible, else read under a brief
// shared lock (concurrent inserters snapshot in parallel). A stale cached
// snapshot is harmless — publish revalidates the layout and the insert
// retries after dropping the entry.
func (e *Engine) snapshotForInsert(name string) (insertSnapshot, error) {
	e.snapMu.Lock()
	snap, hit := e.insertSnaps[name]
	e.snapMu.Unlock()
	if hit {
		return snap, nil
	}
	err := e.withLock(name, shared, func() error {
		tab, err := e.cat.Get(name)
		if err != nil {
			return err
		}
		schema, err := tab.Schema()
		if err != nil {
			return err
		}
		snap = insertSnapshot{layoutExpr: tab.LayoutExpr, schema: schema}
		return nil
	})
	if err != nil {
		return snap, err
	}
	e.snapMu.Lock()
	e.insertSnaps[name] = snap
	e.snapMu.Unlock()
	return snap, nil
}

// prepareTail validates rows, appends them into vectors, runs the per-row
// pipeline steps (project, select — tails stay unorganized, see
// relation.applySteps) and encodes the tail's segment blocks into memory.
// No locks held, no page I/O.
func (e *Engine) prepareTail(snap insertSnapshot, rows []value.Row) (*stagedTail, error) {
	for i, r := range rows {
		if err := snap.schema.Validate(r); err != nil {
			return nil, fmt.Errorf("table: row %d: %w", i, err)
		}
	}
	spec, err := e.compile(snap.layoutExpr)
	if err != nil {
		return nil, err
	}
	rel, err := rowsRelation(snap.schema, rows)
	if err != nil {
		return nil, err
	}
	if err := rel.applySteps(spec, true); err != nil {
		return nil, err
	}
	st := &stagedTail{rows: int64(len(rel.perm))}
	for _, def := range spec.Segments {
		w, err := e.stageSegment(rel, def, spec.RowsPerBlock, nil)
		if err != nil {
			return nil, err
		}
		st.writers = append(st.writers, w)
		st.defs = append(st.defs, def)
	}
	return st, nil
}

// publishTail installs a staged tail batch: allocate extents, write the
// rendered pages in place, append the tail entry and bump the catalog. The
// caller holds the exclusive table lock. With revalidate, a layout mismatch
// against the prepare-time snapshot returns ok=false so the caller can
// re-prepare. Tail-only appends shift no stored position, so secondary
// indexes survive (IndexScan scans the parts past their coverage).
//
// In SyncInserts mode the batch and its streams are also returned; the
// caller encodes them as a tail record (catalog.EncodeTailAppend), logs it
// and fsyncs once the lock is dropped, keeping the copy and the durability
// wait off the table's critical section. The catalog itself is only updated in memory (publish) —
// rewriting the whole catalog per insert is O(catalog size) of serialized
// work, while the logged record is O(batch) and replays on recovery.
func (e *Engine) publishTail(name, layoutExpr string, st *stagedTail, revalidate bool) (pub published, err error) {
	tab, err := e.cat.Get(name)
	if err != nil {
		return published{}, err
	}
	if revalidate && tab.LayoutExpr != layoutExpr {
		return published{}, nil // layout moved between prepare and publish
	}
	batch := make([]catalog.SegmentEntry, 0, len(st.writers))
	for i, w := range st.writers {
		meta, err := w.Finish()
		if err != nil {
			return published{}, err
		}
		batch = append(batch, catalog.SegmentEntry{
			Fields: st.defs[i].Fields, Codecs: st.defs[i].Codecs, Meta: meta,
		})
	}
	// Copy-on-write: the append builds a new record and publish swaps it in
	// under the catalog lock, so a concurrent checkpoint flush never encodes
	// a half-applied append. Appending to the copied slice only ever writes
	// past the shared prefix's length, which readers of the old record never
	// reach.
	work := *tab
	work.Tails = append(work.Tails, batch)
	work.RowCount += st.rows
	pub.mergeNeeded = e.mergeTrigger(len(work.Tails), work.LayoutExpr)
	if pub.id, err = e.publish(&work); err != nil {
		return published{}, err
	}
	if e.durable() {
		pub.batch, pub.rows = batch, st.rows
		pub.streams = make([][]byte, len(st.writers))
		for i, w := range st.writers {
			pub.streams[i] = w.Buf()
		}
	}
	pub.ok = true
	return pub, nil
}

// AlterLayout changes the table's layout expression. ReorgEager re-renders
// immediately; ReorgLazy defers to the next access (paper §5). Either way
// the expression must be one the table's stored form can be re-rendered
// under — a layout that needs an attribute the current one dropped is
// refused here, before anything is recorded, not at the fold that would
// otherwise fail on every later access.
func (e *Engine) AlterLayout(name, layoutExpr string, mode ReorgMode) error {
	if mode != ReorgEager && mode != ReorgLazy {
		return fmt.Errorf("table: unknown reorg mode %q", mode)
	}
	return e.withLock(name, exclusive, func() error {
		tab, err := e.cat.Get(name)
		if err != nil {
			return err
		}
		spec, err := e.compile(layoutExpr)
		if err != nil {
			return err
		}
		if spec.Table != name {
			return fmt.Errorf("table: layout %q is for table %q, not %q", layoutExpr, spec.Table, name)
		}
		stored, err := storedSchema(tab)
		if err != nil {
			return err
		}
		if _, err := e.specFor(tab, spec.Expr, stored); err != nil {
			return err
		}
		// Both modes record the change the same way, on a private copy; eager
		// folds that copy now (one flip, no intermediate Put), lazy publishes
		// the mark and the next access folds.
		work := *tab
		work.PendingExpr = spec.Expr
		work.NeedsReorg = true
		if mode == ReorgEager {
			err = e.reorganize(&work)
		} else {
			_, err = e.publish(&work)
		}
		if err != nil {
			return err
		}
		return e.checkpoint()
	})
}

// Reorganize re-renders the table under its current (or pending) layout,
// merging runs and tail batches into the main segments.
func (e *Engine) Reorganize(name string) error {
	return e.withLock(name, exclusive, func() error {
		tab, err := e.cat.Get(name)
		if err != nil {
			return err
		}
		if err := e.reorganize(tab); err != nil {
			return err
		}
		return e.checkpoint()
	})
}

// storedSchema reconstructs the final (stored) schema of the table from the
// segment list of its oldest organized part — the main rendering, or for a
// table never bulk-loaded its oldest run (every organized part of a table
// shares the layout's segmentation). With only unorganized tails it is the
// logical schema.
func storedSchema(tab *catalog.Table) (*value.Schema, error) {
	logical, err := tab.Schema()
	if err != nil {
		return nil, err
	}
	var fields []value.Field
	for _, p := range tab.Parts() {
		if p.Kind == catalog.PartTail {
			continue
		}
		for _, seg := range p.Segments {
			for _, f := range seg.Fields {
				if i := logical.Index(f); i >= 0 {
					fields = append(fields, logical.Fields[i])
				} else {
					fields = append(fields, value.Field{Name: f, Type: value.List}) // folded synthetic field
				}
			}
		}
		return value.NewSchema(fields...)
	}
	return logical, nil
}
