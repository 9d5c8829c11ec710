package table

// The one fold. Every operation that writes an organized part — Load,
// Reorganize, eager and lazy AlterLayout, Compact under either policy —
// is made of the same three pieces:
//
//	render   layout pipeline → optional grid → one segment per vertical partition
//	readBack the rows of a chosen set of parts, in stored order
//	flip     get the current record → splice the output in where the parts it
//	         replaces are → copy-on-write catalog put → free what was
//	         superseded; with a log the put is buffered and the frees queued
//	         for the next checkpoint, which DDL callers run before they return
//
// flip is the only statement of that ordering besides Drop (which deletes the
// record instead of replacing it). A plain layout is the degenerate policy
// "fold every part into one main rendering"; a compaction policy folds a few
// parts at a time and installs the result as a run.
//
// Compact, and Reorganize with no layout change pending, read back and
// render with no table lock held: they pin the version they read, under the
// shared lock, and take the exclusive lock only for the flip (planFold,
// runFold). The splice finds the parts a fold consumed by first extent in the
// record as it is then, so tails published meanwhile stay; a fold whose
// parts are gone frees its output. A table's fold latch keeps its folds from
// overlapping. Folds that change the layout — eager AlterLayout, a lazy
// change applied, Load — render under the exclusive lock, because tails
// published meanwhile would carry the old segmentation.
//
// readBack and render work on column vectors end to end (relation.go): the
// parts' blocks are read back as batches, the layout's steps reorder a row
// permutation over them, and segment.Writer encodes each block straight from
// the vectors. Load and Insert append their boxed rows into vectors once and
// render the same way. oracle_test.go keeps the boxed fold this replaced as
// the byte-identical reference.

import (
	"errors"
	"fmt"
	"slices"

	"rodentstore/internal/algebra"
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
// one is already in its order (see relation.orderBy). It reads past the
// chunk cache: the parts are about to be freed.
func (e *Engine) readBack(tab *catalog.Table, parts []catalog.Part, settled bool) (*relation, error) {
	plan, err := e.planScan(tab, parts, nil, algebra.True, storedScanOpts{uncached: true})
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
	cur := newCursor(plan)
	defer cur.Close()
	for {
		b, ok, err := cur.NextBatch()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		for c := range b.Cols {
			rel.b.Cols[c].Append(&b.Cols[c])
		}
	}
	if err := rel.b.SetLen(int(rows)); err != nil {
		return nil, fmt.Errorf("table: %q: read back of parts holding %d rows: %w", tab.Name, rows, err)
	}
	rel.perm = vec.FillSel(nil, int(rows))
	return rel, nil
}

// A foldJob is one fold: the parts it reads, from which version, what it
// renders them under, and where its output goes.
type foldJob struct {
	// tab is the record the parts are rendered under: the version they were
	// read from, or a private copy of it carrying a pending layout.
	tab *catalog.Table
	// from is the layout the parts were read under. The splice refuses a
	// record whose layout has moved since.
	from  string
	parts []catalog.Part // consumed, in stored order
	// level is the output run's level; 0 makes the output the main
	// rendering.
	level int
	// pin, for a fold run off the lock, holds the parts it reads until its
	// splice has landed: none of their extents is freed, and so none reused,
	// before the splice looks for them by first extent.
	pin *versionPin
}

// errFoldLost reports that a fold's parts left the table, or its layout
// moved, between its read-back and its splice.
var errFoldLost = errors.New("table: the fold's parts were replaced before its splice")

// fold reads the job's parts back and renders them as one organized part.
// It is the one place CompactStats moves: a fold counts iff it absorbed at
// least one tail or run — re-rendering a lone main part is a re-layout, not
// a merge — and its cost is the rows and payload bytes it wrote.
func (e *Engine) fold(job *foldJob) (rendered, error) {
	// Every organized part was rendered under the layout it was read under:
	// unless that is changing, one is already in its order (readBack).
	rel, err := e.readBack(job.tab, job.parts, job.tab.LayoutExpr == job.from)
	if err != nil {
		return rendered{}, err
	}
	out, err := e.render(job.tab, rel)
	if err != nil {
		return rendered{}, err
	}
	for _, p := range job.parts {
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

// splice rewrites work, a copy of the table's current record, so that out
// stands where the job's parts stand in it, found by first extent: a run at
// the job's level, or the main rendering. Everything else the record holds
// stays — tails published since the fold read its parts, indexes, the rows
// they count, a lazy layout mark. It returns errFoldLost when the layout
// moved, a consumed part is gone, or the output does not fit where the parts
// were.
func (job *foldJob) splice(work *catalog.Table, out rendered) error {
	if work.LayoutExpr != job.from {
		return errFoldLost
	}
	cur := work.Parts()
	at := 0
	if len(job.parts) > 0 {
		at = slices.IndexFunc(cur, func(p catalog.Part) bool { return sameExtent(p, job.parts[0]) })
		if at < 0 || at+len(job.parts) > len(cur) {
			return errFoldLost
		}
	}
	var consumed int64
	for i, p := range job.parts {
		if !sameExtent(cur[at+i], p) {
			return errFoldLost
		}
		consumed += p.Segments[0].Meta.Rows
	}
	kind := catalog.PartMain
	if job.level > 0 {
		kind = catalog.PartRun
	}
	next := slices.Concat(cur[:at], []catalog.Part{{Kind: kind, Index: -1, Level: job.level, Segments: out.entries}}, cur[at+len(job.parts):])
	var segs []catalog.SegmentEntry
	var runs []catalog.RunEntry
	var tails [][]catalog.SegmentEntry
	for i, p := range next {
		switch {
		case p.Kind == catalog.PartMain && i == 0:
			segs = p.Segments
		case p.Kind == catalog.PartRun && len(tails) == 0 && p.Index < 0:
			runs = append(runs, catalog.RunEntry{Level: p.Level, Rows: out.rows, Segments: p.Segments})
		case p.Kind == catalog.PartRun && len(tails) == 0:
			runs = append(runs, work.Runs[p.Index])
		case p.Kind == catalog.PartTail:
			tails = append(tails, p.Segments)
		default:
			return errFoldLost
		}
	}
	work.Segments, work.Runs, work.Tails = segs, runs, tails
	work.RowCount += out.rows - consumed
	if kind == catalog.PartMain {
		work.GridBounds = out.bounds
	}
	return nil
}

// sameExtent reports whether two parts start at the same extent: the same
// part, while a pin keeps that extent from being freed and reused.
func sameExtent(a, b catalog.Part) bool {
	return a.Segments[0].Meta.ExtentStart == b.Segments[0].Meta.ExtentStart
}

// errRelayout reports a pending layout change. It is applied under the
// exclusive lock (reorganizeIfNeeded), never by a fold off the lock: tails
// published meanwhile would carry the old segmentation.
var errRelayout = errors.New("table: layout change pending")

// foldOffLock runs the folds pick chooses, one after another, with no table
// lock held while each reads and renders (planFold, runFold), under the
// table's fold latch so that folds of one table never overlap. pick sees the
// current record before each fold (first: before the first) and returns nil
// when there is nothing more to fold. A pending layout change is applied
// instead, under the exclusive lock.
func (e *Engine) foldOffLock(name string, pick func(tab *catalog.Table, first bool) (*foldJob, error)) error {
	latch := &e.lockOf(name).fold
	latch.Lock()
	defer latch.Unlock()
	for first := true; ; first = false {
		job, err := e.planFold(name, func(tab *catalog.Table) (*foldJob, error) { return pick(tab, first) })
		if errors.Is(err, errRelayout) {
			return e.reorganizeIfNeeded(name)
		}
		if err != nil || job == nil {
			return err
		}
		if err := e.runFold(job); err != nil {
			return err
		}
	}
}

// wholeTable picks, once, the fold of every part of tab into one main
// rendering under its current layout (a foldOffLock pick).
func wholeTable(tab *catalog.Table, first bool) (*foldJob, error) {
	if !first {
		return nil, nil
	}
	return &foldJob{tab: tab, from: tab.LayoutExpr, parts: tab.Parts()}, nil
}

// planFold picks a fold from the table's current record under the shared
// lock and pins the version it reads. A nil job means nothing to fold.
func (e *Engine) planFold(name string, pick func(tab *catalog.Table) (*foldJob, error)) (job *foldJob, err error) {
	err = e.withLock(name, shared, func() error {
		tab, err := e.cat.Get(name)
		if err != nil {
			return err
		}
		if tab.NeedsReorg {
			return errRelayout
		}
		if job, err = pick(tab); job != nil {
			job.pin = e.vers.pin()
		}
		return err
	})
	return job, err
}

// runFold reads and renders a planned fold with no table lock held, then
// takes the exclusive lock to splice the output in. A fold that lost its
// parts to a concurrent Drop, AlterLayout or lazy reorganization reports
// only a vanished table (catalog.ErrNotFound); flip has freed its output.
// Caller holds the table's fold latch, so folds of one table never overlap.
func (e *Engine) runFold(job *foldJob) error {
	defer job.pin.release()
	out, err := e.fold(job)
	if err != nil {
		return err
	}
	err = e.withLock(job.tab.Name, exclusive, func() error { return e.spliceIn(job, out) })
	if errors.Is(err, errFoldLost) {
		return nil
	}
	return err
}

// discard frees the extents of an output no record names, and returns err,
// the reason none does (or the failed free's error instead).
func (e *Engine) discard(out rendered, err error) error {
	for _, s := range out.entries {
		if s.Meta.ExtentPages > 0 {
			if ferr := e.file.FreeRun(s.Meta.ExtentStart, s.Meta.ExtentPages); ferr != nil {
				return ferr
			}
		}
	}
	return err
}

// relayout applies tab's pending layout change: every part folds into one
// main rendering under the new layout, all under the exclusive table lock,
// which the caller holds — tails published while it rendered would carry
// the old segmentation. tab may be a private copy carrying a pending
// expression no reader has seen (eager AlterLayout): nothing reaches the
// catalog until the flip, so a failed fold leaves the table exactly as it
// was. The caller checkpoints before releasing the lock (Engine.checkpoint).
func (e *Engine) relayout(tab *catalog.Table) error {
	work := *tab
	if work.PendingExpr != "" {
		work.LayoutExpr = work.PendingExpr
	}
	work.NeedsReorg, work.PendingExpr = false, ""
	job := &foldJob{tab: &work, from: tab.LayoutExpr, parts: tab.Parts()}
	out, err := e.fold(job)
	if err != nil {
		return err
	}
	return e.flip(tab.Name, job.parts, out, func(cur *catalog.Table) error {
		if err := job.splice(cur, out); err != nil {
			return err
		}
		cur.LayoutExpr, cur.NeedsReorg, cur.PendingExpr = work.LayoutExpr, false, ""
		return nil
	})
}

// flip publishes edit's rewrite of the table's current record and reclaims
// the parts it supersedes: get, edit, publish, then free. The Get is the
// splice's: a fold run off the lock edits the record as it is now, not the
// version it read. The publish is buffered, and the next checkpoint,
// whatever triggers it, persists the record — its flush syncs the new parts
// before the header write that names them — and only then may the replaced
// parts be freed. A crash before that
// checkpoint recovers the replaced parts, still allocated, and the log's
// tail records replay onto them; a catalog flushed in between records the
// commits it reflects, and recovery skips those records, so tails a fold
// absorbed do not come back beside its run. Either way a replaced part is
// freed only once no pin older than the flip remains (version.go). A caller
// that must be durable on return checkpoints (Engine.checkpoint) before
// releasing the table lock.
//
// flip alone decides which indexes stay valid. A fold replaces a contiguous
// range of parts in place, so every stored position before the first part it
// replaced still holds the row an index tree maps it to: each index's
// coverage (Rows) is clamped to that position, and an index covering nothing
// is dropped. Every tree the old record lists and the new one does not is
// reclaimed with the superseded parts. Caller holds the exclusive table
// lock, for the flip only: a fold reads and renders before it, unlocked.
//
// out is the fold's output, which edit splices in (none for an index
// drop). Until the publish no record names it, so a flip whose table is
// gone or whose edit fails frees it. The publish itself cannot fail.
func (e *Engine) flip(name string, parts []catalog.Part, out rendered, edit func(work *catalog.Table) error) error {
	old, err := e.cat.Get(name)
	if err != nil {
		return e.discard(out, err)
	}
	work := *old
	if err := edit(&work); err != nil {
		return e.discard(out, err)
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
	e.publish(&work)
	e.vers.queue(catalog.Extents(parts, trees))
	return nil
}

// spliceIn flips out in where job's parts are (foldJob.splice).
func (e *Engine) spliceIn(job *foldJob, out rendered) error {
	return e.flip(job.tab.Name, job.parts, out, func(work *catalog.Table) error { return job.splice(work, out) })
}

// publish swaps work in as its table's catalog record, buffered, and returns
// the commit id the update got; the next checkpoint persists it.
func (e *Engine) publish(work *catalog.Table) uint64 { return e.cat.PutBuffered(work) }
