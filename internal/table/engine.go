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
	"slices"
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
	// hooks). Every Insert logs its tail through it as one tail record
	// (catalog.EncodeTailAppend), which recovery writes to a fresh extent
	// and appends, so the catalog is updated in memory only. Table-level
	// mutual exclusion does not depend on it — see tableLocks.
	mgr *txn.Manager
	// cache holds decoded column chunks for scans (chunkcache.go); nil
	// (the default, see EnableCache) reads every block from the pager, so
	// page-read statistics equal cold physical I/O.
	cache *chunkCache
	// tableMu guards tableLocks, the engine-owned table-level locks every
	// catalog read-modify-write and every cursor construction runs under
	// (withLock), each with its table's fold latch. They are intrinsic to
	// the engine: foreground operations and the background merge pool's
	// splices exclude each other.
	tableMu    sync.Mutex
	tableLocks map[string]*tableLock

	mu    sync.Mutex
	specs map[string]*layout.Spec // compile cache keyed by expr text

	// merge is the background tail-merge worker (nil until EnableAutoMerge).
	mergeMu sync.Mutex
	merge   *merger

	// vers is the version pin state and the free queue (version.go): an
	// extent a catalog update stopped referencing is freed only once the
	// update is durable (until then a crash rolls the catalog back to a
	// version that still references it, and a reallocated extent rewritten
	// since would corrupt that old catalog's data) and no cursor or fold
	// that may still read it remains.
	vers *versions

	// Fold counters, moved only by fold (see fold.go; the gating benchmark
	// reports them as table.merges/merge_rows/merge_bytes).
	statMerges     atomic.Int64
	statMergeRows  atomic.Int64
	statMergeBytes atomic.Int64
}

// NewEngine creates an engine over a page file and the catalog just loaded
// from it. It hands the pager every extent the catalog owns, and free space
// becomes the rest of the file (pager.Reclaim): pages a crash stranded, and
// frees that never ran, are reused from here on. The engine hooks the
// catalog into mgr's checkpoint/recovery protocol: buffered catalog updates
// flush before every checkpoint, the catalog's replaced extents wait for
// one, and logged tail records replay during recovery — so create the
// engine before calling the manager's Recover, whose replayed tails then
// land in reclaimed space.
func NewEngine(file *pager.File, cat *catalog.Catalog, mgr *txn.Manager) (*Engine, error) {
	var err error
	cat.Owned(func(owned []pager.Extent) { err = file.Reclaim(owned) })
	if err != nil {
		return nil, fmt.Errorf("table: the catalog's extents: %w", err)
	}
	e := &Engine{
		file:       file,
		cat:        cat,
		mgr:        mgr,
		tableLocks: make(map[string]*tableLock),
		specs:      make(map[string]*layout.Spec),
		vers:       newVersions(file),
	}
	// Stage the free queue before the catalog flush: everything queued by
	// then had its catalog update already written, so this checkpoint's file
	// sync makes those updates durable and the staged extents safe to free
	// afterwards, once unpinned. Table extents queued mid-checkpoint wait for
	// the next one.
	mgr.BeforeCheckpoint = func() error { return e.vers.stage(cat.Flush) }
	mgr.AfterCheckpoint = e.vers.checkpointed
	mgr.Backlog = e.vers.backlog
	mgr.OnRecover = cat.ApplyTailAppend
	cat.DeferFree = e.vers.queueCatalog
	return e, nil
}

// EnableCache gives scans a cache of decoded column chunks holding up to
// budget bytes. Call it once, before the engine serves reads. Folds and
// CheckIntegrity never use it: a fold's inputs are about to be freed, and an
// integrity check must read the disk.
func (e *Engine) EnableCache(budget int64) {
	e.cache = newChunkCache(e.file, budget)
}

// InvalidateCache empties the chunk cache (no-op without one), so the next
// scans read and decode every block again. A scan in flight keeps what it
// decoded and caches nothing it fetched before the call.
func (e *Engine) InvalidateCache() {
	if e.cache != nil {
		e.cache.clear()
	}
}

// checkpoint makes a flip durable before its caller returns: it persists
// the buffered record and drains the frees the flip queued. A flip that
// moves the layout must call it before releasing the table lock, so no tail
// rendered under the new layout is logged while the persisted catalog still
// holds the old one.
func (e *Engine) checkpoint() error { return e.mgr.Checkpoint() }

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
	// fold is the table's fold latch (Engine.latch): Load, Compact,
	// Reorganize and AlterLayout hold it, so folds and layout changes of one
	// table never overlap. It is taken before the lock itself, never while
	// holding it.
	fold sync.Mutex

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
// the hierarchy below the fold latch and is never nested — fn must not call
// withLock again.
func (e *Engine) withLock(name string, mode lockMode, fn func() error) error {
	lk := e.lockOf(name)
	lk.acquire(bool(mode))
	defer lk.release(bool(mode))
	return fn()
}

// lockOf returns the named table's lock, creating it on first use.
func (e *Engine) lockOf(name string) *tableLock {
	e.tableMu.Lock()
	defer e.tableMu.Unlock()
	lk := e.tableLocks[name]
	if lk == nil {
		lk = &tableLock{}
		lk.free.L = &lk.mu
		e.tableLocks[name] = lk
	}
	return lk
}

// compile resolves a layout expression against the current catalog schemas,
// with caching. The plan goes into the cache map it missed in: a schema
// change invalidates after updating the catalog, so a plan compiled against
// the schemas before it lands in a map no later lookup sees.
func (e *Engine) compile(exprText string) (*layout.Spec, error) {
	e.mu.Lock()
	specs := e.specs
	spec, ok := specs[exprText]
	e.mu.Unlock()
	if ok {
		return spec, nil
	}
	spec, err := e.compileAs(exprText, "", nil)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	specs[exprText] = spec
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
}

// Create registers a table with its logical schema and layout expression,
// durably: the flush's header write is synced by a checkpoint before Create
// returns, since the inserts that follow sync only the log. Nothing is
// rendered until Load.
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
		err = e.cat.Put(&catalog.Table{
			Name:       name,
			Fields:     catalog.FieldsOf(schema),
			LayoutExpr: spec.Expr,
		})
		e.invalidateSpecCache()
		if err != nil {
			return err
		}
		return e.checkpoint()
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
		exts := catalog.Extents(tab.Parts(), tab.Indexes)
		err = e.cat.Delete(name)
		e.invalidateSpecCache()
		if err != nil {
			return err
		}
		e.vers.queue(exts)
		return e.checkpoint()
	})
}

// Load bulk-loads rows into an empty table, rendering the layout. Rows must
// match the logical schema. Use Insert to add data afterwards.
func (e *Engine) Load(name string, rows []value.Row) error {
	defer e.latch(name)()
	return e.withLock(name, exclusive, func() error {
		tab, err := e.cat.Get(name)
		if err != nil {
			return err
		}
		if tab.RowCount > 0 {
			return fmt.Errorf("table: %q already loaded (%d rows); use Insert or Reorganize", name, tab.RowCount)
		}
		rel, err := validRows(tab, rows)
		if err != nil {
			return err
		}
		// Render first; the flip swaps the rendering in atomically, so a
		// concurrent checkpoint flush never encodes a half-rendered table.
		out, err := e.render(tab, rel)
		if err != nil {
			return err
		}
		return e.land(&foldJob{tab: tab, from: tab.LayoutExpr, parts: tab.Parts()}, out)
	})
}

// Insert appends rows as an unorganized tail batch. The main layout is not
// touched (the "reorganize only new data" strategy of §5); call Reorganize
// to merge, or EnableAutoMerge to have tails folded in the background.
//
// Insert is staged: validation, the per-row pipeline steps and the segment
// block encoding run with no table lock held, against the (copy-on-write)
// record the catalog holds when the insert starts, so concurrent inserters
// overlap this work. Only the publish — extent allocation, page writes, tail
// append, catalog put — runs under the exclusive table lock, re-preparing
// the stage if the layout or schema moved meanwhile.
//
// The published tail's record is then logged to the WAL as one frame, its
// own commit, and fsync'd (group commit) off the lock, so concurrent
// inserters' fsyncs coalesce; Insert returns once the batch is
// redo-durable, and the page file is synced by the next checkpoint. Two
// batches may reach the log in the other order than they were published;
// recovery then rebuilds the tails in log order — a permutation of
// unorganized batches, never a loss.
func (e *Engine) Insert(name string, rows []value.Row) error {
	if len(rows) == 0 {
		return nil
	}
	pub, err := e.insertTail(name, rows)
	if err != nil {
		return err
	}
	record := catalog.EncodeTailAppend(name, pub.batch, pub.rows, pub.streams)
	if err := e.mgr.Commit(pub.id, record); err != nil {
		return err
	}
	e.maybeAutoMerge(name, pub.mergeNeeded)
	return nil
}

// stagedTail is a fully encoded tail batch, ready to publish, with the
// layout and schema of the record it was encoded under.
type stagedTail struct {
	layoutExpr string
	fields     []catalog.FieldMeta
	writers    []*segment.Writer
	defs       []layout.SegmentDef
	rows       int64
}

// published is the outcome of a publish: whether the merge policy fired,
// what the tail record is encoded from (the batch, its row count and the
// writers' streams) and the commit id its catalog update got, for
// Manager.Commit.
type published struct {
	mergeNeeded bool
	id          uint64
	batch       []catalog.SegmentEntry
	rows        int64
	streams     [][]byte
}

// insertTail runs Insert's one prepare/publish round. The tail record comes
// back to the caller, to be logged after the lock is released.
func (e *Engine) insertTail(name string, rows []value.Row) (pub published, err error) {
	tab, err := e.cat.Get(name)
	if err != nil {
		return published{}, err
	}
	st, err := e.prepareTail(tab, rows)
	if err != nil {
		return published{}, err
	}
	err = e.withLock(name, exclusive, func() error {
		pub, err = e.publishTail(name, st, rows)
		return err
	})
	return pub, err
}

// prepareTail validates rows against tab's schema, appends them into
// vectors, runs the per-row pipeline steps of tab's layout (project, select
// — tails stay unorganized, see relation.applySteps) and encodes the tail's
// segment blocks into memory. No locks held, no page I/O.
func (e *Engine) prepareTail(tab *catalog.Table, rows []value.Row) (*stagedTail, error) {
	rel, err := validRows(tab, rows)
	if err != nil {
		return nil, err
	}
	spec, err := e.compile(tab.LayoutExpr)
	if err != nil {
		return nil, err
	}
	return e.encodeTail(tab, rel, spec)
}

// validRows validates rows against tab's logical schema and appends them
// into vectors.
func validRows(tab *catalog.Table, rows []value.Row) (*relation, error) {
	schema, err := tab.Schema()
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		if err := schema.Validate(r); err != nil {
			return nil, fmt.Errorf("table: row %d: %w", i, err)
		}
	}
	return rowsRelation(schema, rows)
}

// encodeTail runs spec's per-row steps over rel and encodes the result's
// segment blocks into memory, a stage for tab's record. No page I/O.
func (e *Engine) encodeTail(tab *catalog.Table, rel *relation, spec *layout.Spec) (*stagedTail, error) {
	if err := rel.applySteps(spec, true); err != nil {
		return nil, err
	}
	st := &stagedTail{layoutExpr: tab.LayoutExpr, fields: tab.Fields, rows: int64(len(rel.perm))}
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

// writeTail finishes a stage's writers — allocating extents and writing
// pages — and returns the tail's segment entries; a failure frees those
// already written (a failed Finish frees its own).
func (e *Engine) writeTail(st *stagedTail) ([]catalog.SegmentEntry, error) {
	var batch []catalog.SegmentEntry
	for i, w := range st.writers {
		meta, err := w.Finish()
		if err != nil {
			return nil, e.discard(rendered{entries: batch}, err)
		}
		batch = append(batch, catalog.SegmentEntry{
			Fields: st.defs[i].Fields, Codecs: st.defs[i].Codecs, Meta: meta,
		})
	}
	return batch, nil
}

// publishTail installs a staged tail batch of rows: write it (writeTail),
// append the tail entry and publish the record in memory. The caller holds
// the exclusive table lock, and logs the returned batch and streams as a
// tail record once it is dropped: the record is O(batch), a catalog rewrite
// O(catalog). A stage whose layout or schema is no longer the table's is
// re-prepared from rows first; its unfinished writers hold no extents.
// Tail-only appends shift no stored position, so secondary indexes survive
// (IndexScan scans the parts past their coverage).
func (e *Engine) publishTail(name string, st *stagedTail, rows []value.Row) (pub published, err error) {
	tab, err := e.cat.Get(name)
	if err != nil {
		return published{}, err
	}
	if tab.LayoutExpr != st.layoutExpr || !slices.Equal(tab.Fields, st.fields) {
		if st, err = e.prepareTail(tab, rows); err != nil {
			return published{}, err
		}
	}
	batch, err := e.writeTail(st)
	if err != nil {
		return published{}, err
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
	pub.id = e.publish(&work)
	pub.batch, pub.rows = batch, st.rows
	pub.streams = make([][]byte, len(st.writers))
	for i, w := range st.writers {
		pub.streams[i] = w.Buf()
	}
	return pub, nil
}

// AlterLayout changes the table's layout expression (paper §5). ReorgEager
// re-renders now, as a fold off the table lock; ReorgLazy records the change
// durably and the next access applies it as one. Either waits for a fold in
// flight (the fold latch). A layout the stored form cannot be re-rendered
// under is refused before anything is recorded (checkLayout).
func (e *Engine) AlterLayout(name, layoutExpr string, mode ReorgMode) error {
	if mode != ReorgEager && mode != ReorgLazy {
		return fmt.Errorf("table: unknown reorg mode %q", mode)
	}
	if mode == ReorgEager {
		return e.foldOffLock(name, func(tab *catalog.Table, first bool) (*foldJob, error) {
			if !first {
				return nil, nil
			}
			expr, err := e.checkLayout(tab, layoutExpr)
			if err != nil {
				return nil, err
			}
			return layoutChange(tab, expr), nil
		})
	}
	defer e.latch(name)()
	return e.withLock(name, exclusive, func() error {
		tab, err := e.cat.Get(name)
		if err != nil {
			return err
		}
		expr, err := e.checkLayout(tab, layoutExpr)
		if err != nil {
			return err
		}
		work := *tab
		work.PendingExpr, work.NeedsReorg = expr, true
		e.publish(&work)
		return e.checkpoint()
	})
}

// checkLayout compiles layoutExpr for tab and returns its canonical text, or
// why tab cannot take it: it names another table, or needs an attribute
// tab's stored form dropped, which no fold could then render it from.
func (e *Engine) checkLayout(tab *catalog.Table, layoutExpr string) (string, error) {
	spec, err := e.compile(layoutExpr)
	if err != nil {
		return "", err
	}
	if spec.Table != tab.Name {
		return "", fmt.Errorf("table: layout %q is for table %q, not %q", layoutExpr, spec.Table, tab.Name)
	}
	stored, err := storedSchema(tab)
	if err != nil {
		return "", err
	}
	if _, err := e.specFor(tab, spec.Expr, stored); err != nil {
		return "", err
	}
	return spec.Expr, nil
}

// Reorganize folds every part into one main rendering under the table's
// layout, or the pending one, off the table lock, and is durable on return
// (land).
func (e *Engine) Reorganize(name string) error { return e.foldOffLock(name, wholeTable) }

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
