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
// Each fold of a Compact is one of fold.go's: rendered off the table lock
// from a pinned version, spliced in by a flip. A run changes how rows are
// stored, never which rows or under what layout, so a fold into one leaves
// the flip's durability to the next checkpoint, which persists the run and
// frees what it replaced.

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
// whose layout has no compaction directive fold every part into one main
// rendering, as Reorganize does, and so does a pending lazy layout change,
// durably. The background merge worker routes every triggered table through
// here. Each fold runs off the table lock (foldOffLock): inserts and scans
// proceed while it reads and renders.
//
// A Compact that folds into runs is durable at the next checkpoint, not
// when it returns (flip); one into the main rendering is durable on return,
// as Reorganize is (land). It runs a checkpoint itself, off the table lock,
// once the frees it queued are worth one (MaybeCheckpoint).
func (e *Engine) Compact(name string) error {
	if err := e.foldOffLock(name, e.nextCompaction); err != nil {
		return err
	}
	return e.mgr.MaybeCheckpoint()
}

// nextCompaction picks Compact's next fold from tab, or nil when there is
// none: for a plain layout or a pending change, every part into the main
// rendering, once; for a compaction policy, first every tail into one
// level-1 run (the newest, so it appends at the end of the hierarchy), then
// whole levels into the next until the policy holds. Tails published after
// the first fold wait for the next Compact, so one call cannot chase a
// steady ingest forever.
func (e *Engine) nextCompaction(tab *catalog.Table, first bool) (*foldJob, error) {
	spec, err := e.compile(tab.LayoutExpr)
	if err != nil {
		return nil, err
	}
	if spec.Compaction == nil || tab.NeedsReorg {
		return wholeTable(tab, first)
	}
	job := &foldJob{tab: tab, from: tab.LayoutExpr}
	parts := tab.Parts()
	if first && len(tab.Tails) > 0 {
		job.parts, job.level = parts[len(parts)-len(tab.Tails):], 1
		return job, nil
	}
	lo, hi, level, ok := pickFold(tab.Runs, spec)
	if !ok {
		return nil, nil
	}
	runs := parts[len(parts)-len(tab.Tails)-len(tab.Runs):]
	job.parts, job.level = runs[lo:hi], level
	return job, nil
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
