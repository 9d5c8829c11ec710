package table

// The one fold. Every operation that writes an organized part — Load,
// Reorganize, eager and lazy AlterLayout, Compact under either policy —
// is made of the same three pieces:
//
//	render   layout pipeline → optional grid → one segment per vertical partition
//	readBack the rows of a chosen set of parts, in stored order
//	flip     barrier → copy-on-write catalog Put → free what was superseded → checkpoint
//	         (a Compact's flip stops at the Put, in memory, and leaves the rest
//	         to the next checkpoint)
//
// flip is the only statement of that ordering besides Drop (which deletes the
// record instead of replacing it). A plain layout is the degenerate policy
// "fold every part into one main rendering"; a compaction policy folds a few
// parts at a time and installs the result as a run.
//
// readBack and render work on column vectors end to end (relation.go): the
// parts' blocks are read back as batches, the layout's steps reorder a row
// permutation over them, and segment.Writer encodes each block straight from
// the vectors. Load and Insert append their boxed rows into vectors once and
// render the same way. oracle_test.go keeps the boxed fold this replaced as
// the byte-identical reference.

import (
	"fmt"
	"slices"

	"rodentstore/internal/algebra"
	"rodentstore/internal/btree"
	"rodentstore/internal/catalog"
	"rodentstore/internal/layout"
	"rodentstore/internal/pager"
	"rodentstore/internal/segment"
	"rodentstore/internal/transforms"
	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

// rendered is one organized part as render wrote it.
type rendered struct {
	entries []catalog.SegmentEntry
	bounds  []catalog.GridBoundsMeta // nil when ungridded
	rows    int64
}

// specFor compiles exprText for a table whose rows are in the given stored
// schema. When that is the logical schema the cached catalog compile serves.
// When the stored form dropped attributes (e.g. project[lat,lon]) the
// expression is compiled against what is actually stored, and one that needs
// a dropped attribute is refused — there is nothing to render it from.
func (e *Engine) specFor(tab *catalog.Table, exprText string, stored *value.Schema) (*layout.Spec, error) {
	logical, err := tab.Schema()
	if err != nil {
		return nil, err
	}
	if stored.String() == logical.String() {
		return e.compile(exprText)
	}
	spec, err := e.compileAs(exprText, tab.Name, stored)
	if err != nil {
		return nil, fmt.Errorf("table: %q: layout needs attributes the stored form dropped: %w", tab.Name, err)
	}
	return spec, nil
}

// render runs tab's layout pipeline over rel and writes one organized part.
// It allocates and writes extents but does not touch the catalog; a caller
// that fails before its flip leaks them, never references them.
func (e *Engine) render(tab *catalog.Table, rel *relation) (rendered, error) {
	spec, err := e.specFor(tab, tab.LayoutExpr, rel.b.Schema())
	if err != nil {
		return rendered{}, err
	}
	if err := rel.applySteps(spec, false); err != nil {
		return rendered{}, err
	}
	out := rendered{rows: int64(len(rel.perm))}
	var runs []cellRun // nil: the whole stream, ungridded
	if spec.Grid != nil {
		var bounds []transforms.GridBounds
		if bounds, runs, err = rel.grid(spec.Grid); err != nil {
			return rendered{}, err
		}
		for _, b := range bounds {
			out.bounds = append(out.bounds, catalog.GridBoundsMeta{
				Field: b.Field, Min: b.Min, Max: b.Max, Cells: b.Cells,
			})
		}
	}
	for _, def := range spec.Segments {
		w, err := e.stageSegment(rel, def, spec.RowsPerBlock, runs)
		if err != nil {
			return rendered{}, err
		}
		meta, err := w.Finish()
		if err != nil {
			return rendered{}, err
		}
		out.entries = append(out.entries, catalog.SegmentEntry{Fields: def.Fields, Codecs: def.Codecs, Meta: meta})
	}
	return out, nil
}

// stageSegment encodes one vertical partition's blocks into an in-memory
// segment writer (no extent allocated, no page I/O — that happens when the
// caller Finishes the writer): each cell run, or the whole stream when runs
// is nil, cut into blocks of rowsPerBlock, encoded straight from rel's
// columns.
func (e *Engine) stageSegment(rel *relation, def layout.SegmentDef, rowsPerBlock int, runs []cellRun) (*segment.Writer, error) {
	proj, idx, err := rel.b.Schema().Project(def.Fields)
	if err != nil {
		return nil, err
	}
	w, err := segment.NewWriter(e.file, segment.Spec{Fields: proj.Fields, Codecs: def.Codecs})
	if err != nil {
		return nil, err
	}
	cols := make([]*vec.Vector, len(idx))
	for i, c := range idx {
		cols[i] = &rel.b.Cols[c]
	}
	if runs == nil {
		runs = []cellRun{{cell: segment.NoCell, rows: rel.perm}}
	}
	if rowsPerBlock <= 0 {
		rowsPerBlock = segment.DefaultRowsPerBlock
	}
	grown := false
	for _, run := range runs {
		for lo := 0; lo < len(run.rows); lo += rowsPerBlock {
			if err := w.WriteBlock(run.cell, cols, run.rows[lo:min(lo+rowsPerBlock, len(run.rows))]); err != nil {
				return nil, err
			}
			if done := int(w.Rows()); !grown && done >= rowsPerBlock {
				// Size the stream once, from the bytes per row of a block's
				// worth of rows, instead of regrowing it as it fills.
				w.Grow(len(w.Buf()) * (len(rel.perm) - done) / done)
				grown = true
			}
		}
	}
	return w, nil
}

// readBack drains the chosen parts of tab, in the order given, into one
// relation in the table's stored schema: each block's batch appended to the
// columns, no row boxed. Each part is one input of the relation; settled
// says the parts were rendered under tab's current layout, so an organized
// one is already in its order (see relation.orderBy).
func (e *Engine) readBack(tab *catalog.Table, parts []catalog.Part, settled bool) (*relation, error) {
	plan, err := e.planScan(tab, parts, nil, algebra.True, storedScanOpts{})
	if err != nil {
		return nil, err
	}
	rel := &relation{b: vec.NewBatch(plan.out)}
	var rows int64
	for _, p := range parts {
		rel.inputs = append(rel.inputs, input{start: int(rows), sorted: settled && p.Kind != catalog.PartTail})
		rows += p.Segments[0].Meta.Rows
	}
	for c := range rel.b.Cols {
		rel.b.Cols[c].Grow(int(rows))
	}
	cur := newCursor(plan, false, 0)
	defer cur.Close()
	var sel []int32
	for {
		b, ok, err := cur.NextBatch()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		sel = vec.FillSel(sel, b.Len())
		for c := range b.Cols {
			rel.b.Cols[c].AppendSel(&b.Cols[c], sel)
		}
	}
	if err := rel.b.SetLen(int(rows)); err != nil {
		return nil, fmt.Errorf("table: %q: read back of parts holding %d rows: %w", tab.Name, rows, err)
	}
	rel.perm = vec.FillSel(nil, int(rows))
	return rel, nil
}

// fold reads the chosen parts back and renders them as one organized part.
// It is the one place CompactStats moves: a fold counts iff it absorbed at
// least one tail or run — re-rendering a lone main part is a re-layout, not
// a merge — and its cost is the rows and payload bytes it wrote.
func (e *Engine) fold(tab *catalog.Table, parts []catalog.Part, settled bool) (rendered, error) {
	rel, err := e.readBack(tab, parts, settled)
	if err != nil {
		return rendered{}, err
	}
	out, err := e.render(tab, rel)
	if err != nil {
		return rendered{}, err
	}
	for _, p := range parts {
		if p.Kind != catalog.PartMain {
			var bytes uint64
			for _, s := range out.entries {
				bytes += s.Meta.UsedBytes
			}
			e.statMerges.Add(1)
			e.statMergeRows.Add(out.rows)
			e.statMergeBytes.Add(int64(bytes))
			break
		}
	}
	return out, nil
}

// reorganize folds every part of tab into one main rendering under its
// current — or, when one is pending, its new — layout. tab may be a private
// copy carrying a pending expression no reader has seen (eager AlterLayout):
// nothing reaches the catalog until the flip, so a failed fold leaves the
// table exactly as it was. buffered selects flip's form; a caller sets it
// only when no layout change is pending. Caller holds the exclusive table
// lock.
func (e *Engine) reorganize(tab *catalog.Table, buffered bool) error {
	e.dropInsertSnap(tab.Name) // the layout may flip below
	work := *tab
	if work.NeedsReorg && work.PendingExpr != "" {
		work.LayoutExpr = work.PendingExpr
	}
	work.NeedsReorg, work.PendingExpr = false, ""
	// Every organized part was rendered under tab.LayoutExpr.
	out, err := e.fold(&work, tab.Parts(), work.LayoutExpr == tab.LayoutExpr)
	if err != nil {
		return err
	}
	return e.installMain(tab, &work, out, buffered)
}

// installMain makes out the whole of work's storage and flips it in over
// old, superseding every part of old.
func (e *Engine) installMain(old, work *catalog.Table, out rendered, buffered bool) error {
	work.Segments, work.Runs, work.Tails = out.entries, nil, nil
	work.RowCount = out.rows
	work.GridBounds = out.bounds
	return e.flip(work, old.Parts(), buffered)
}

// reclaimable lists the extents behind superseded parts and index trees.
// Walking a tree reads its pages, so this runs before anything is freed. A
// tree that cannot be walked to the end is reclaimed as far as it could be
// read and the rest leaks: an unreadable index page must not make a table
// impossible to fold or drop.
func (e *Engine) reclaimable(parts []catalog.Part, trees []catalog.IndexMeta) []pager.Extent {
	var exts []pager.Extent
	for _, p := range parts {
		for _, s := range p.Segments {
			if s.Meta.ExtentPages > 0 {
				exts = append(exts, pager.Extent{Start: s.Meta.ExtentStart, Count: s.Meta.ExtentPages})
			}
		}
	}
	for _, ix := range trees {
		reached, _ := btree.Open(e.file, pager.PageID(ix.Root)).Extents()
		exts = append(exts, reached...)
	}
	return exts
}

// free releases extents — deferred to the next checkpoint in durable mode,
// inline otherwise.
func (e *Engine) free(exts []pager.Extent) error {
	if e.durable() {
		e.freeMu.Lock()
		defer e.freeMu.Unlock()
		for _, ext := range exts {
			e.deferredFrees = append(e.deferredFrees, ext)
			e.queuedPages += ext.Count
		}
		return nil
	}
	for _, ext := range exts {
		if err := e.file.FreeRun(ext.Start, ext.Count); err != nil {
			return err
		}
	}
	return nil
}

// flip publishes work as the table's catalog record and reclaims what it
// supersedes. Without a log that is a Put and inline frees. With one, the
// order is the durability protocol:
//
//  1. checkpointBeforeFree — no log record may still name an extent about to
//     be freed (and later reallocated);
//  2. copy-on-write Put — readers and a concurrent checkpoint flush see the
//     old record or the new one, never a mixture;
//  3. free — queued until a checkpoint has made the Put durable, so a crash
//     leaks pages but never lets WAL replay write into an extent the
//     rolled-back catalog still references;
//  4. checkpointAfterFlip — makes the new record durable and drains the queue.
//
// A buffered flip (Compact: the same rows under the same layout, stored
// differently) keeps only the ordering and leaves the work to the next
// checkpoint, whatever triggers it: it advances the free barrier instead of
// checkpointing, swaps the record in memory (PutUnsynced) and queues the
// frees; that checkpoint's flush syncs the new runs, then persists the
// record, before its frees run. A crash before it recovers the replaced
// parts, still allocated, and the log's tail-append deltas replay onto them.
// A catalog flushed in between (by a DDL Put) syncs the runs too and records
// the commits it reflects, and recovery skips their deltas, so the tails the
// fold absorbed do not come back beside its run.
//
// flip alone decides which indexes stay valid. A fold replaces a contiguous
// range of parts in place, so every stored position before the first part it
// replaced still holds the row an index tree maps it to: each index's
// coverage (Rows) is clamped to that position, and an index covering nothing
// is dropped. Every tree the old record lists and work does not is reclaimed
// with the superseded parts.
//
// A flip that frees nothing needs neither checkpoint. Caller holds the
// exclusive table lock.
func (e *Engine) flip(work *catalog.Table, parts []catalog.Part, buffered bool) error {
	old, err := e.cat.Get(work.Name)
	if err != nil {
		return err
	}
	replaced := make(map[pager.PageID]bool) // by a part's first extent
	for _, p := range parts {
		replaced[p.Segments[0].Meta.ExtentStart] = true
	}
	var first int64
	for _, p := range old.Parts() {
		if replaced[p.Segments[0].Meta.ExtentStart] {
			break
		}
		first += p.Segments[0].Meta.Rows
	}
	var kept []catalog.IndexMeta
	for _, ix := range work.Indexes {
		if ix.Rows = min(ix.Rows, first); ix.Rows > 0 {
			kept = append(kept, ix)
		}
	}
	work.Indexes = kept
	var trees []catalog.IndexMeta
	for _, ix := range old.Indexes {
		if !slices.ContainsFunc(work.Indexes, func(w catalog.IndexMeta) bool { return w.Root == ix.Root }) {
			trees = append(trees, ix)
		}
	}
	if buffered && e.durable() {
		e.mgr.AdvanceBarrier()
		e.cat.PutUnsynced(work)
		return e.free(e.reclaimable(parts, trees))
	}
	exts := e.reclaimable(parts, trees)
	if len(exts) == 0 {
		return e.cat.Put(work)
	}
	if err := e.checkpointBeforeFree(); err != nil {
		return err
	}
	if err := e.cat.Put(work); err != nil {
		return err
	}
	if err := e.free(exts); err != nil {
		return err
	}
	return e.checkpointAfterFlip()
}
