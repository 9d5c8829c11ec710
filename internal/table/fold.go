package table

// The one fold. Every operation that writes an organized part — Load,
// Reorganize, eager and lazy AlterLayout, Compact under either policy —
// is made of the same three pieces:
//
//	render   layout pipeline → optional grid → one segment per vertical partition
//	readBack the rows of a chosen set of parts, in stored order
//	flip     get the current record → splice the output in where the parts it
//	         replaces are → buffered copy-on-write catalog put → queue what
//	         was superseded, freed after the next checkpoint
//
// flip is the only statement of that ordering besides Drop (which deletes the
// record instead of replacing it). A plain layout is the degenerate policy
// "fold every part into one main rendering"; a compaction policy folds a few
// parts at a time and installs the result as a run.
//
// Every fold of stored parts, a layout change included, picks its parts and
// pins the version it reads under the exclusive lock (planFold), reads back
// and renders with no table lock held, and takes that lock again to splice
// (foldOffLock, land). The splice finds the consumed parts by first extent, so tails
// published meanwhile stay — re-encoded under the new layout when the fold
// changes it (catchUp). A change to a layout that refuses inserts (refusal)
// could not take them, so planFold runs it whole under its lock. A table's
// fold latch keeps its folds, layout changes and Loads from overlapping.
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
	level int            // of the output run; 0 makes the output the main rendering
	// pin, for a fold run off the lock, keeps the extents of the parts it
	// reads from being freed, and so reused, before its splice finds them.
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
// the job's level, or the main rendering. The record takes the layout the
// output was rendered under, with job.tab's lazy mark. Everything else it
// holds stays — tails published since the fold read its parts, indexes, the
// rows they count. It returns errFoldLost when the layout moved, a consumed
// part is gone, or the output does not fit where the parts were.
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
	work.LayoutExpr, work.NeedsReorg, work.PendingExpr = job.tab.LayoutExpr, job.tab.NeedsReorg, job.tab.PendingExpr
	return nil
}

// sameExtent reports whether two parts start at the same extent: the same
// part, while a pin keeps that extent from being freed and reused.
func sameExtent(a, b catalog.Part) bool {
	return a.Segments[0].Meta.ExtentStart == b.Segments[0].Meta.ExtentStart
}

// foldOffLock runs the folds pick chooses, one after another, under the
// table's fold latch, so that folds of one table never overlap: each is
// planned and pinned (planFold), read back and rendered with no table lock
// held, and landed under the exclusive lock. pick sees the current record
// before each fold (first: before the first) and returns nil when there is
// nothing more to fold.
func (e *Engine) foldOffLock(name string, pick func(tab *catalog.Table, first bool) (*foldJob, error)) error {
	defer e.latch(name)()
	for first := true; ; first = false {
		job, err := e.planFold(name, func(tab *catalog.Table) (*foldJob, error) { return pick(tab, first) })
		if err != nil || job == nil {
			return err
		}
		out, err := e.fold(job)
		if err == nil {
			err = e.withLock(name, exclusive, func() error { return e.land(job, out) })
		}
		job.pin.release()
		if err != nil {
			return err
		}
	}
}

// latch takes the named table's fold latch and returns its release: Load,
// Compact, Reorganize and AlterLayout hold it.
func (e *Engine) latch(name string) (release func()) {
	l := &e.lockOf(name).fold
	l.Lock()
	return l.Unlock
}

// layoutChange returns the fold of every part of tab into one main rendering
// under layout expr, over a private copy of tab that no reader sees before
// the splice: a fold that fails leaves the table as it was.
func layoutChange(tab *catalog.Table, expr string) *foldJob {
	work := *tab
	work.LayoutExpr, work.NeedsReorg, work.PendingExpr = expr, false, ""
	return &foldJob{tab: &work, from: tab.LayoutExpr, parts: tab.Parts()}
}

// wholeTable picks, once, the fold of every part of tab into one main
// rendering under its layout — the pending one when a lazy change is marked
// (a foldOffLock pick).
func wholeTable(tab *catalog.Table, first bool) (*foldJob, error) {
	if !first {
		return nil, nil
	}
	expr := tab.LayoutExpr
	if tab.NeedsReorg {
		expr = tab.PendingExpr
	}
	return layoutChange(tab, expr), nil
}

// planFold picks a fold from the table's current record and pins the
// version it reads, briefly holding the exclusive lock. A nil job means
// nothing to fold. The one fold it runs itself, under that lock, is a change
// to a layout that refuses inserts (refusal): catchUp could not encode rows
// inserted while it rendered, so none may be. That is always its call's
// last fold, so planFold returns no job after it.
func (e *Engine) planFold(name string, pick func(tab *catalog.Table) (*foldJob, error)) (job *foldJob, err error) {
	err = e.withLock(name, exclusive, func() error {
		tab, err := e.cat.Get(name)
		if err != nil {
			return err
		}
		if job, err = pick(tab); err != nil || job == nil {
			return err
		}
		if spec, err := e.compile(job.tab.LayoutExpr); err == nil && job.tab.LayoutExpr != job.from && refusal(spec) != nil {
			locked := job
			job = nil
			out, err := e.fold(locked)
			if err != nil {
				return err
			}
			return e.land(locked, out)
		}
		job.pin = e.vers.pin()
		return nil
	})
	return job, err
}

// land splices a fold's output in (spliceIn). A fold into the main
// rendering then checkpoints, so that it is durable on return — and a
// layout change must, before the lock is released (Engine.checkpoint). A
// fold that lost its parts reports only a vanished table
// (catalog.ErrNotFound), and a layout change always does; flip has freed
// the output. Caller holds the exclusive lock.
func (e *Engine) land(job *foldJob, out rendered) error {
	moves := job.tab.LayoutExpr != job.from
	err := e.spliceIn(job, out)
	if err == nil && job.level == 0 {
		err = e.checkpoint()
	}
	switch {
	case errors.Is(err, errFoldLost) && moves:
		return fmt.Errorf("table: %q was replaced during its layout change: %w", job.tab.Name, catalog.ErrNotFound)
	case errors.Is(err, errFoldLost):
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

// flip publishes edit's rewrite of the table's current record (get, edit,
// publish, free): a fold edits the record as it is now, not the version it
// read. The publish is buffered; the next checkpoint persists the record
// (its flush syncs the new parts before the header write naming them), and
// only then, once no older pin remains (version.go), are the replaced parts
// freed. A crash before it recovers them, still allocated, with the log's
// tail records replaying onto them, less those a flushed catalog already
// reflects, so tails a fold absorbed do not come back beside its run.
// Caller holds the exclusive table lock.
//
// flip alone decides which indexes stay valid. A fold replaces a contiguous
// range of parts in place, so each index's coverage (Rows) is clamped to
// the first position it replaced, and an index covering nothing is
// dropped; every tree the new record no longer lists is reclaimed too.
//
// out is the output edit splices in (none for an index drop); edit returns
// the parts it replaced. A flip whose table is gone or whose edit fails
// frees out, which no record names yet. The publish cannot fail.
func (e *Engine) flip(name string, out rendered, edit func(work *catalog.Table) ([]catalog.Part, error)) error {
	old, err := e.cat.Get(name)
	if err != nil {
		return e.discard(out, err)
	}
	work := *old
	parts, err := edit(&work)
	if err != nil {
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

// spliceIn flips out in where job's parts are (foldJob.splice). A fold that
// changes the layout also replaces the tails published since its pin, in
// the old segmentation, with one tail under the new layout (catchUp).
func (e *Engine) spliceIn(job *foldJob, out rendered) error {
	return e.flip(job.tab.Name, out, func(work *catalog.Table) ([]catalog.Part, error) {
		old := *work
		if err := job.splice(work, out); err != nil {
			return nil, err
		}
		if job.tab.LayoutExpr == job.from || len(work.Tails) == 0 {
			return job.parts, nil
		}
		late := old.Parts()[len(old.Parts())-len(work.Tails):]
		return slices.Concat(job.parts, late), e.catchUp(&old, work, late)
	})
}

// catchUp replaces late, the tails old gained while a layout change
// rendered, with one tail in work, the record the change was spliced into:
// read back, compiled against what they store, and encoded as Insert
// encodes one, O(rows since the pin). Caller holds the exclusive lock.
func (e *Engine) catchUp(old, work *catalog.Table, late []catalog.Part) error {
	rel, err := e.readBack(old, late, false)
	if err != nil {
		return err
	}
	read := int64(len(rel.perm))
	spec, err := e.specFor(work, work.LayoutExpr, rel.b.Schema())
	if err != nil {
		return err
	}
	st, err := e.encodeTail(work, rel, spec)
	if err != nil {
		return fmt.Errorf("table: %q: rows inserted during the layout change: %w", work.Name, err)
	}
	tail, err := e.writeTail(st)
	if err != nil {
		return err
	}
	work.Tails = [][]catalog.SegmentEntry{tail}
	work.RowCount += st.rows - read
	return nil
}

// publish swaps work in as its table's catalog record, buffered, and returns
// the commit id the update got; the next checkpoint persists it.
func (e *Engine) publish(work *catalog.Table) uint64 { return e.cat.PutBuffered(work) }
