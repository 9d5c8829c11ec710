package table

// Leveled run storage (ROADMAP item 3, after CobbleDB's composition of LSM
// runs in storage-algebra terms): a table whose layout carries a compaction
// directive — sizetiered[k](...) or leveled[k](...) — keeps its data as a
// hierarchy of runs instead of one monolithic rendering. Unorganized tail
// batches are level 0; a fold renders all current tails into one organized
// level-1 run; compaction folds whole levels into the next. Every fold is
// O(the folded runs), never O(table), so write amplification under sustained
// ingest stays bounded by the hierarchy depth instead of growing linearly
// with table size, as it does on the default path
// (TestCompactPolicyBoundsBytesPerMerge holds the difference).
//
// Invariant: catalog.Table.Runs is kept in chronological order, oldest data
// first, which coincides with non-increasing levels (a level-L run is always
// newer than every level-(L+1) run: tail folds append the newest data at
// level 1, and a level fold merges runs that are adjacent in age). Scans
// concatenate main segments, runs in slice order, then tails — global insert
// order, the same contract single-rendering tables have.
//
// Each run is organized: the layout's full pipeline (project, select,
// orderby, groupby) runs per fold, and the segment writer emits per-block
// zone maps, so zone pruning works run by run. Compositions whose physical
// mapping is inherently global (grid, fold, limit) are rejected with the
// compaction directive at compile time.
//
// Durability is flip's (fold.go): new run segments are written before the
// one copy-on-write catalog swap that ends a Compact, and everything the
// folds superseded is reclaimed by that flip. A Compact changes how rows are
// stored, never which rows or under what layout, so it leaves the flip's
// durability to the next checkpoint, which persists the run and frees what
// it replaced.

import (
	"rodentstore/internal/algebra"
	"rodentstore/internal/catalog"
	"rodentstore/internal/layout"
)

// CompactStats counts background/foreground fold work since the engine
// opened: incremental run folds, plus full re-renders that absorbed tails
// or runs (the plain path's O(table) merge). Bytes is the payload written
// by those folds — the write amplification per merge that the gating
// benchmark reports as table.merge_bytes.
type CompactStats struct {
	Merges int64 // folds performed (tail folds + level folds)
	Rows   int64 // rows written into rendered runs
	Bytes  int64 // payload bytes written into rendered runs
}

// CompactStats returns a snapshot of the fold counters.
func (e *Engine) CompactStats() CompactStats {
	return CompactStats{
		Merges: e.statMerges.Load(),
		Rows:   e.statMergeRows.Load(),
		Bytes:  e.statMergeBytes.Load(),
	}
}

// Compact folds a table's accumulated tail batches into its run hierarchy
// and cascades level folds until its compaction policy is satisfied. Tables
// whose layout has no compaction directive (or with a pending lazy layout
// change) fall back to a full Reorganize — Compact is always safe to call.
// The background merge worker routes every triggered table through here.
//
// With a log, a Compact that applies no pending layout change is durable at
// the next checkpoint, not when it returns (flip). It runs one itself, off
// the table lock, once the frees it queued are worth one (MaybeCheckpoint).
// A pending layout change is applied as Reorganize applies it, durably.
func (e *Engine) Compact(name string) error {
	err := e.withLock(name, exclusive, func() error {
		tab, err := e.cat.Get(name)
		if err != nil {
			return err
		}
		spec, err := e.compile(tab.LayoutExpr)
		if err != nil {
			return err
		}
		if tab.NeedsReorg || spec.Compaction == nil {
			if err := e.reorganize(tab); err != nil || !tab.NeedsReorg {
				return err
			}
			return e.checkpoint()
		}
		return e.compactLocked(tab, spec)
	})
	if err != nil || !e.durable() {
		return err
	}
	return e.mgr.MaybeCheckpoint()
}

// compactLocked runs the fold loop. Caller holds the exclusive table lock
// and has verified spec.Compaction is set.
func (e *Engine) compactLocked(tab *catalog.Table, spec *layout.Spec) error {
	e.dropInsertSnap(tab.Name)
	// Copy-on-write: all mutation happens on a private copy with fresh
	// slices; the one flip below swaps it in, so a concurrent checkpoint
	// flush never encodes a half-folded table.
	work := *tab
	var superseded []catalog.Part
	// foldInto folds work's parts [lo, hi) of one kind into one run at level
	// and returns it.
	foldInto := func(level int, kind catalog.PartKind, lo, hi int) (catalog.RunEntry, error) {
		var chosen []catalog.Part
		for _, p := range work.Parts() {
			if p.Kind == kind && p.Index >= lo && p.Index < hi {
				chosen = append(chosen, p)
			}
		}
		// Every run was rendered under work's layout: a pending layout
		// change reorganizes instead (Compact).
		out, err := e.fold(&work, chosen, true)
		superseded = append(superseded, chosen...)
		return catalog.RunEntry{Level: level, Rows: out.rows, Segments: out.entries}, err
	}

	// Level-0 fold: every current tail batch becomes one organized level-1
	// run (the newest run, so it appends at the end of the hierarchy).
	if len(work.Tails) > 0 {
		run, err := foldInto(1, catalog.PartTail, 0, len(work.Tails))
		if err != nil {
			return err
		}
		work.Runs = append(append([]catalog.RunEntry(nil), work.Runs...), run)
		work.Tails = nil
	}

	// Cascade: fold whole levels into the next until the policy holds.
	for {
		lo, hi, level, ok := pickFold(work.Runs, spec)
		if !ok {
			break
		}
		run, err := foldInto(level, catalog.PartRun, lo, hi)
		if err != nil {
			return err
		}
		runs := append([]catalog.RunEntry(nil), work.Runs[:lo]...)
		runs = append(runs, run)
		work.Runs = append(runs, work.Runs[hi:]...)
	}

	if len(superseded) == 0 {
		return nil // nothing triggered; catalog untouched
	}
	return e.flip(&work, superseded)
}

// pickFold selects the next fold: the contiguous range runs[lo:hi) to merge
// and the level of the resulting run. ok=false means the policy is
// satisfied. Runs are grouped by level (contiguous by the chronological
// invariant) and checked newest level first.
func pickFold(runs []catalog.RunEntry, spec *layout.Spec) (lo, hi, level int, ok bool) {
	comp := spec.Compaction
	if len(runs) == 0 || comp == nil {
		return 0, 0, 0, false
	}
	type group struct {
		level, lo, hi int
		rows          int64
	}
	var groups []group
	for i, r := range runs {
		if n := len(groups); n > 0 && groups[n-1].level == r.Level {
			groups[n-1].hi = i + 1
			groups[n-1].rows += r.Rows
		} else {
			groups = append(groups, group{level: r.Level, lo: i, hi: i + 1, rows: r.Rows})
		}
	}
	for i := len(groups) - 1; i >= 0; i-- {
		g := groups[i]
		switch comp.Kind {
		case algebra.CompactSizeTiered:
			// A level folds once it accumulates Fanout runs.
			if g.hi-g.lo >= comp.Fanout {
				return g.lo, g.hi, g.level + 1, true
			}
		case algebra.CompactLeveled:
			// At most one run per level: merge duplicates in place first.
			if g.hi-g.lo > 1 {
				return g.lo, g.hi, g.level, true
			}
			// A run that outgrows its level's target merges into the level
			// above (together with that level's run, if present).
			if g.rows >= targetRows(spec, g.level) {
				lo := g.lo
				if i > 0 && groups[i-1].level == g.level+1 {
					lo = groups[i-1].lo
				}
				return lo, g.hi, g.level + 1, true
			}
		}
	}
	return 0, 0, 0, false
}

// targetRows is the leveled policy's per-level size target: one block of
// rows at level 0, growing by the fanout per level — so each promotion
// rewrites geometrically more data geometrically less often.
func targetRows(spec *layout.Spec, level int) int64 {
	t := int64(spec.RowsPerBlock)
	for i := 0; i < level; i++ {
		t *= int64(spec.Compaction.Fanout)
		if t > 1<<40 {
			break
		}
	}
	return t
}
