package table

// Offline integrity checking: CheckIntegrity walks every table's segments
// and decodes every block, so damage is found before a query trips over it,
// and audits extent accounting: the extents the catalog owns are disjoint,
// inside the file and not free. The walk is read-only and runs under each
// table's shared lock (writers are excluded per table, readers are not). It
// never stops at the first problem: every issue is collected, typed and
// extent-addressed, which is what the quarantine path and an operator
// repairing a file both need.

import (
	"fmt"
	"sort"

	"rodentstore/internal/catalog"
	"rodentstore/internal/pager"
	"rodentstore/internal/segment"
	"rodentstore/internal/value"
	"rodentstore/internal/vec"
)

// IntegrityIssue is one problem found by CheckIntegrity, addressed down to
// the block when known.
type IntegrityIssue struct {
	// Table is the owning table ("" for store-level issues reported by
	// callers that append pager/WAL findings).
	Table string
	// Part locates the segment list (catalog.Part's label: "main",
	// "run[N]L<level>", "tail[N]") or names a store-level area.
	Part string
	// Segment is the index within the part (-1 when not segment-scoped).
	Segment int
	// Extent is the damaged page run (zero when unknown).
	Extent pager.Extent
	// Block is the block index within the segment (-1 for whole-segment
	// issues).
	Block int
	// Err is the underlying error (typed corruption errors pass through).
	Err error
}

func (i IntegrityIssue) String() string {
	where := i.Part
	if i.Table != "" {
		where = i.Table + "/" + where
	}
	if i.Segment >= 0 {
		where = fmt.Sprintf("%s/seg%d", where, i.Segment)
	}
	if i.Block >= 0 {
		where = fmt.Sprintf("%s/block%d", where, i.Block)
	}
	return fmt.Sprintf("%s [%d,+%d): %v", where, i.Extent.Start, i.Extent.Count, i.Err)
}

// IntegrityReport is the outcome of an integrity walk.
type IntegrityReport struct {
	// Tables, Segments and Blocks count what the walk covered.
	Tables   int
	Segments int
	Blocks   int
	// OwnedPages counts the pages the catalog owns (its own extent, every
	// part and every index tree); FreePages the pages the pager holds free.
	// Pages that are neither wait in the free queue, belong to work in
	// flight, or were stranded since the store opened.
	OwnedPages, FreePages uint64
	// Issues lists everything that failed to read or decode, and every
	// owned extent that overlaps another, is free or passes the cursor.
	Issues []IntegrityIssue
}

// OK reports whether the walk found no issues.
func (r *IntegrityReport) OK() bool { return len(r.Issues) == 0 }

// CheckIntegrity decodes every block of every table (every part, all
// columns) and reports each one that cannot be read, and audits the
// extents the catalog owns against the pager's free space. Damage does not
// stop the walk; only infrastructure failures (catalog unreadable) return a
// non-nil error alongside the partial report.
func (e *Engine) CheckIntegrity() (*IntegrityReport, error) {
	rep := &IntegrityReport{}
	e.checkExtents(rep)
	names := e.cat.Names()
	sort.Strings(names)
	for _, name := range names {
		err := e.withLock(name, shared, func() error {
			tab, err := e.cat.Get(name)
			if err != nil {
				return err
			}
			rep.Tables++
			stored, err := storedSchema(tab)
			if err != nil {
				rep.Issues = append(rep.Issues, IntegrityIssue{
					Table: name, Part: "schema", Segment: -1, Block: -1, Err: err,
				})
				return nil
			}
			for _, p := range tab.Parts() {
				e.checkEntries(rep, name, p.String(), p.Segments, stored)
			}
			return nil
		})
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// checkExtents audits extent accounting. A pin taken before the catalog is
// read keeps every extent it names from being freed meanwhile, and the
// catalog lock keeps its own extent in place.
func (e *Engine) checkExtents(rep *IntegrityReport) {
	pin := e.vers.pin()
	defer pin.release()
	e.cat.Owned(func(owned []pager.Extent) {
		for _, x := range owned {
			rep.OwnedPages += x.Count
		}
		var errs []error
		rep.FreePages, errs = e.file.CheckExtents(owned)
		for _, err := range errs {
			rep.Issues = append(rep.Issues, IntegrityIssue{Part: "extents", Segment: -1, Block: -1, Err: err})
		}
	})
}

// checkEntries walks one part's segment list, decoding every column of
// every block of every segment the way scans do (View, then DecodeCol into
// one reused vector).
func (e *Engine) checkEntries(rep *IntegrityReport, table, part string, entries []catalog.SegmentEntry, stored *value.Schema) {
	var col vec.Vector
	for si, entry := range entries {
		rep.Segments++
		ext := pager.Extent{Start: entry.Meta.ExtentStart, Count: entry.Meta.ExtentPages}
		issue := func(block int, err error) {
			rep.Issues = append(rep.Issues, IntegrityIssue{
				Table: table, Part: part, Segment: si, Extent: ext, Block: block, Err: err,
			})
		}
		fields := make([]value.Field, 0, len(entry.Fields))
		bad := false
		for _, f := range entry.Fields {
			i := stored.Index(f)
			if i < 0 {
				issue(-1, fmt.Errorf("segment field %q not in stored schema", f))
				bad = true
				break
			}
			fields = append(fields, stored.Fields[i])
		}
		if bad {
			continue
		}
		r, err := segment.NewReader(e.file, entry.Meta, segment.Spec{Fields: fields, Codecs: entry.Codecs})
		if err != nil {
			issue(-1, err)
			continue
		}
		for bi := range entry.Meta.Blocks {
			rep.Blocks++
			if err := decodeBlock(r, bi, len(fields), &col); err != nil {
				issue(bi, err)
			}
		}
	}
}

// decodeBlock fetches block bi of r and decodes each of its ncols columns
// into col, stopping at the first that fails.
func decodeBlock(r *segment.Reader, bi, ncols int, col *vec.Vector) error {
	bv, err := r.View(bi)
	if err != nil {
		return err
	}
	for c := range ncols {
		if err := bv.DecodeCol(c, col); err != nil {
			return err
		}
	}
	return nil
}
