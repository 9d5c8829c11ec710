package main

// Layer probes of the traced run. After the timed phase the workload's own
// database file is opened below the public API — pager.OpenAt, catalog.Load,
// segment.NewReader — and each layer's exported entry points are called
// over the workload's table, each call (or pass) a span whose children are
// the pager and vfs spans it caused. A layer's number is its self time: its
// spans minus what their children cover.

import (
	"fmt"
	"io"
	"os"
	"time"

	rs "rodentstore"
	"rodentstore/internal/algebra"
	"rodentstore/internal/buffer"
	"rodentstore/internal/catalog"
	"rodentstore/internal/pager"
	"rodentstore/internal/segment"
	"rodentstore/internal/value"
	"rodentstore/internal/vec"
	"rodentstore/internal/wal"
)

// probeSpec says what of a workload the probes replay.
type probeSpec struct {
	table   string
	fields  []string // columns the workload's scans decode
	wheres  []string // query strings of the workload (may be empty)
	class   string   // the class whose p50 table.self_share explains
	groupBy bool     // the workload aggregates by id
	wal     bool     // the workload writes
	// compact: time a synchronous Compact on a copy. Not for window_cold,
	// whose stored form dropped t and id and so cannot be re-rendered.
	compact bool
	// poolPages > 0: the workload reads through a warm pool of that size, so
	// an operation costs pool hits, not page reads.
	poolPages int
	// predCols of the decoded columns are the predicate's and selectivity
	// is the share of rows that survive it, for the late-materialization
	// term of self_share; zero predCols means every column is decoded for
	// every row.
	predCols    int
	selectivity float64
	// opMs and pagesPerOp override what self_share explains (macro_mixed
	// uses its pre-ingest snapshot); zero means the class p50 of the timed
	// phase and pager.pages_per_op.
	opMs, pagesPerOp float64
}

// tracedSource is a segment.PageSource that records every page read as a
// pager span under the innermost open probe span.
type tracedSource struct {
	file *pager.File
	tr   *tracer
}

func (s tracedSource) ReadPage(id pager.PageID) ([]byte, error) {
	sp := s.tr.begin("pager", "ReadPage")
	data, err := s.file.ReadPage(id)
	sp.end()
	return data, err
}

func (s tracedSource) PayloadSize() int { return s.file.PayloadSize() }

// tablePart is one independently rendered piece of a table (the main
// rendering, a run, or a tail batch): its vertical partitions' readers,
// block-aligned.
type tablePart struct {
	readers []*segment.Reader
	cols    [][2]int // per batch column: reader, column within the reader
	blocks  int
}

// passes is how often a page-level probe pass is repeated; the median pass
// is reported, so that one garbage collection or descheduling during a pass
// of a few milliseconds does not set the number.
const passes = 5

func probeLayers(e *env, path string, ps probeSpec) error {
	p := e.res.PerLayer
	file, err := pager.OpenAt(e.fs, path)
	if err != nil {
		return err
	}
	defer file.Close()
	cat, err := catalog.Load(file)
	if err != nil {
		return err
	}
	tab, err := cat.Get(ps.table)
	if err != nil {
		return err
	}
	logical, err := tab.Schema()
	if err != nil {
		return err
	}
	lists := [][]catalog.SegmentEntry{tab.Segments}
	for _, r := range tab.Runs {
		lists = append(lists, r.Segments)
	}
	lists = append(lists, tab.Tails...)

	// The table's extents, pages, rows and blocks.
	var extents []pager.Extent
	var tablePages, tableRows, tableBlocks int64
	for _, entries := range lists {
		for i, en := range entries {
			if en.Meta.ExtentPages > 0 {
				extents = append(extents, pager.Extent{Start: en.Meta.ExtentStart, Count: en.Meta.ExtentPages})
				tablePages += int64(en.Meta.ExtentPages)
			}
			if i == 0 {
				tableRows += en.Meta.Rows
				tableBlocks += int64(len(en.Meta.Blocks))
			}
		}
	}
	if tablePages == 0 || tableRows == 0 {
		return fmt.Errorf("probe: table %s has no stored pages", ps.table)
	}
	vfsNsPerPage, err := probePages(e, file, extents)
	if err != nil {
		return err
	}

	// A workload that reads through a warm pool is probed through one; the
	// others through the pager, each page read a span.
	var src segment.PageSource = tracedSource{file, e.tr}
	if ps.poolPages > 0 {
		pool, err := buffer.NewPool(file, ps.poolPages)
		if err != nil {
			return err
		}
		for _, ext := range extents {
			if err := leaseRun(pool, ext.Start, ext.Count); err != nil {
				return err
			}
		}
		src = pool
	}
	cols, err := probeBlocks(e, src, lists, logical, ps)
	if err != nil {
		return err
	}
	e.res.Info["probe_codecs"] = codecsOf(lists)

	var walRoundNs float64
	if ps.wal {
		if walRoundNs, err = probeWAL(e); err != nil {
			return err
		}
	}
	if ps.compact {
		if p["table.compact_s"], err = probeCompact(e, path, ps); err != nil {
			return err
		}
	}

	p["table.self_share"] = selfShare(e, ps, tableShape{tablePages, tableRows, tableBlocks}, vfsNsPerPage, walRoundNs, cols)
	return nil
}

// tableShape is the size of the probed table.
type tableShape struct{ pages, rows, blocks int64 }

// selfShare is the part of the class's median call that the probed layers
// do not explain (planning, cursors, locks, scheduling). The work of a call
// is estimated from its page count, so this is an estimate.
func selfShare(e *env, ps probeSpec, t tableShape, vfsNsPerPage, walRoundNs float64, cols int) float64 {
	p := e.res.PerLayer
	opNs := ps.opMs * 1e6
	if opNs == 0 {
		opNs = e.res.Classes[ps.class].P50Ms * 1e6
	}
	if opNs == 0 {
		return 0
	}
	if ps.class == classInsert {
		// One insert: its records appended, one group-commit sync (which
		// writes them), and one run write of its tail pages.
		explained := walRoundNs
		if e.dataIO.WriteOps > 0 {
			explained += float64(e.dataIO.WriteBusy) / float64(e.dataIO.WriteOps)
		}
		return 1 - explained/opNs
	}
	pagesPerOp, perPage := ps.pagesPerOp, p["pager.ns_per_page"]+vfsNsPerPage
	if pagesPerOp == 0 {
		pagesPerOp = p["pager.pages_per_op"]
	}
	if ps.poolPages > 0 {
		// Every call touches the whole table, in the pool; the pool's hits
		// are inside the View time measured through it.
		pagesPerOp, perPage = float64(t.pages), 0
	}
	rowsPerOp := pagesPerOp * float64(t.rows) / float64(t.pages)
	blocksPerOp := rowsPerOp * float64(t.blocks) / float64(t.rows)
	// Late materialization: the predicate's columns are decoded for every
	// row, the others for the surviving share.
	colShare := 1.0
	if ps.predCols > 0 && cols > ps.predCols {
		colShare = (float64(ps.predCols) + ps.selectivity*float64(cols-ps.predCols)) / float64(cols)
	}
	explained := p["algebra.compile_us"]*1e3 + pagesPerOp*perPage + blocksPerOp*p["segment.view_ns_per_block"] +
		rowsPerOp*(colShare*p["compress.decode_ns_per_row"]+p["algebra.filter_ns_per_row"])
	return 1 - explained/opNs
}

// probePages times the pager and the buffer pool over the table's first
// ProbePages pages and returns the vfs time under one ReadPage.
func probePages(e *env, file *pager.File, extents []pager.Extent) (vfsNsPerPage float64, err error) {
	tr, p := e.tr, e.res.PerLayer
	var pages []pager.PageID
	for _, ext := range extents {
		for i := uint64(0); i < ext.Count && len(pages) < e.scale.ProbePages; i++ {
			pages = append(pages, ext.Start+pager.PageID(i))
		}
	}
	n := float64(len(pages))
	e.res.Info["probe_pages"] = len(pages)

	// pager.ReadPage, one call per page: self time is the span minus the
	// vfs reads under it.
	var pagerNs, vfsNs []float64
	for pass := 0; pass < passes; pass++ {
		mark := tr.mark()
		sp := tr.begin("pager", "ReadPage x N")
		for _, id := range pages {
			if _, err := file.ReadPage(id); err != nil {
				sp.end()
				return 0, err
			}
		}
		sp.end()
		self := selfBy(tr.spansSince(mark), byLayer)
		pagerNs, vfsNs = append(pagerNs, float64(self["pager"])/n), append(vfsNs, float64(self["vfs"])/n)
	}
	p["pager.ns_per_page"], vfsNsPerPage = median(pagerNs), median(vfsNs)

	// pager.ReadRunInto over the same pages, in runs of up to 64.
	var runNs []float64
	var buf []byte
	for pass := 0; pass < passes; pass++ {
		mark := tr.mark()
		sp := tr.begin("pager", "ReadRunInto x N")
		left := uint64(len(pages))
		for _, ext := range extents {
			for off := uint64(0); off < ext.Count && left > 0; {
				k := min(ext.Count-off, 64, left)
				if buf, err = file.ReadRunInto(buf[:0], ext.Start+pager.PageID(off), k); err != nil {
					sp.end()
					return 0, err
				}
				off, left = off+k, left-k
			}
		}
		sp.end()
		runNs = append(runNs, float64(selfBy(tr.spansSince(mark), byLayer)["pager"])/n)
	}
	p["pager.run_ns_per_page"] = median(runNs)

	// buffer.Pool.Lease of every page of a cold pool (miss), then again
	// (hit). The times include what runs under the pool.
	var missNs, hitNs []float64
	for pass := 0; pass < passes; pass++ {
		pool, err := buffer.NewPool(file, len(pages)+64)
		if err != nil {
			return 0, err
		}
		for _, into := range []*[]float64{&missNs, &hitNs} {
			sp := tr.begin("buffer", "Lease x N")
			for _, id := range pages {
				if err := leaseRun(pool, id, 1); err != nil {
					sp.end()
					return 0, err
				}
			}
			*into = append(*into, float64(sp.end())/n)
		}
	}
	p["buffer.miss_ns"], p["buffer.hit_ns"] = median(missNs), median(hitNs)
	return vfsNsPerPage, nil
}

// leaseRun leases and releases n pages from start, one at a time.
func leaseRun(pool *buffer.Pool, start pager.PageID, n uint64) error {
	for i := uint64(0); i < n; i++ {
		l, err := pool.Lease(start + pager.PageID(i))
		if err != nil {
			return err
		}
		if err := l.Release(); err != nil {
			return err
		}
	}
	return nil
}

// probeBlocks walks the table block by block: View each vertical
// partition's block, decode the columns the workload's scans decode, then
// run the compiled predicates, the group-by kernels and row boxing over the
// decoded batch. It returns how many columns it decoded per block.
func probeBlocks(e *env, src segment.PageSource, lists [][]catalog.SegmentEntry, logical *value.Schema, ps probeSpec) (cols int, err error) {
	tr, p := e.tr, e.res.PerLayer
	var batchFields []value.Field
	var parts []tablePart
	for _, entries := range lists {
		if len(entries) == 0 {
			continue
		}
		part := tablePart{blocks: len(entries[0].Meta.Blocks)}
		var fields []value.Field
		for _, en := range entries {
			spec := segment.Spec{Codecs: en.Codecs}
			for _, name := range en.Fields {
				i := logical.Index(name)
				if i < 0 {
					return 0, fmt.Errorf("probe: stored field %q not in schema", name)
				}
				spec.Fields = append(spec.Fields, logical.Fields[i])
			}
			wanted := false
			for ci, f := range spec.Fields {
				for _, want := range ps.fields {
					if f.Name == want {
						fields = append(fields, f)
						part.cols = append(part.cols, [2]int{len(part.readers), ci})
						wanted = true
					}
				}
			}
			if !wanted {
				continue
			}
			r, err := segment.NewReader(src, en.Meta, spec)
			if err != nil {
				return 0, err
			}
			part.readers = append(part.readers, r)
		}
		if batchFields == nil {
			batchFields = fields
		}
		parts = append(parts, part)
	}
	batchSchema, err := value.NewSchema(batchFields...)
	if err != nil {
		return 0, err
	}

	// algebra: parse and compile each query string.
	var preds []*algebra.CompiledPred
	if n := min(len(ps.wheres), e.scale.ProbeOps); n > 0 {
		var total time.Duration
		for _, where := range ps.wheres[:n] {
			sp := tr.begin("algebra", "ParsePredicate+CompilePred")
			pred, err := algebra.ParsePredicate(where)
			var cp *algebra.CompiledPred
			if err == nil {
				cp, err = algebra.CompilePred(pred, batchSchema)
			}
			total += sp.end()
			if err != nil {
				return 0, fmt.Errorf("probe: compile %q: %w", where, err)
			}
			preds = append(preds, cp)
		}
		p["algebra.compile_us"] = float64(total) / float64(n) / 1e3
	}

	idCol, latCol := batchSchema.Index("id"), batchSchema.Index("lat")
	var groupTable *vec.GroupTable
	if ps.groupBy && idCol >= 0 && latCol >= 0 {
		keys, _, err := batchSchema.Project([]string{"id"})
		if err != nil {
			return 0, err
		}
		groupTable = vec.NewGroupTable(keys)
	}
	const aggSpan = "GroupIDs+SumFloat64Groups+CountRowsGroups"
	batch := vec.NewBatch(batchSchema)
	views := make([]*segment.BlockView, 0, 4)
	var sel, gids []int32
	var sums []float64
	var counts []int64
	var boxed value.Row
	var blocks, rows int64
	rowBudget := int64(e.scale.ProbePages) * 48
	mark := tr.mark()
	for _, part := range parts {
		for b := 0; b < part.blocks && rows < rowBudget; b++ {
			// A view is valid until its reader's next View; each reader is
			// viewed once per block, so all of a block's views coexist.
			views = views[:0]
			for _, r := range part.readers {
				sp := tr.begin("segment", "View")
				bv, err := r.View(b)
				sp.end()
				if err != nil {
					return 0, err
				}
				views = append(views, bv)
			}
			batch.Reset(batchSchema)
			sp := tr.begin("compress", "DecodeCol")
			for c, at := range part.cols {
				if err := views[at[0]].DecodeCol(at[1], &batch.Cols[c]); err != nil {
					sp.end()
					return 0, err
				}
			}
			sp.end()
			n := views[0].Rows()
			if err := batch.SetLen(n); err != nil {
				return 0, err
			}
			blocks++
			rows += int64(n)

			if len(preds) > 0 {
				sel = vec.FillSel(sel, n)
				sp := tr.begin("algebra", "Filter")
				sel = preds[int(blocks)%len(preds)].Filter(batch, sel)
				sp.end()
			}
			if groupTable != nil {
				sp := tr.begin("vec", aggSpan)
				gids = groupTable.GroupIDs([]*vec.Vector{&batch.Cols[idCol]}, nil, n, gids[:0])
				for len(sums) < groupTable.Len() {
					sums, counts = append(sums, 0), append(counts, 0, 0)
				}
				lat := &batch.Cols[latCol]
				vec.SumFloat64Groups(lat.Float64s, &lat.Nulls, nil, gids, sums, counts[:len(sums)])
				vec.CountRowsGroups(n, nil, gids, counts[len(sums):])
				sp.end()
			}
			sp = tr.begin("vec", "Batch.Row")
			for i := 0; i < n; i++ {
				boxed = batch.Row(i)
			}
			sp.end()
		}
	}
	_ = boxed
	if blocks == 0 {
		return 0, fmt.Errorf("probe: no blocks decoded")
	}
	bySpan := selfBy(tr.spansSince(mark), byName)
	p["segment.view_ns_per_block"] = float64(bySpan["segment/View"]) / float64(blocks)
	p["compress.decode_ns_per_row"] = float64(bySpan["compress/DecodeCol"]) / float64(rows)
	p["vec.box_ns_per_row"] = float64(bySpan["vec/Batch.Row"]) / float64(rows)
	if len(preds) > 0 {
		p["algebra.filter_ns_per_row"] = float64(bySpan["algebra/Filter"]) / float64(rows)
	}
	if groupTable != nil {
		p["vec.agg_ns_per_row"] = float64(bySpan["vec/"+aggSpan]) / float64(rows)
	}
	e.res.Info["probe_blocks"] = blocks
	e.res.Info["probe_rows"] = rows
	return len(batchFields), nil
}

func codecsOf(lists [][]catalog.SegmentEntry) []string {
	seen := map[string]bool{}
	for _, entries := range lists {
		for _, en := range entries {
			for i, c := range en.Codecs {
				if c == "" {
					c = "none"
				}
				seen[en.Fields[i]+":"+c] = true
			}
		}
	}
	return sortedKeys(seen)
}

// probeWAL times Append of page-image-sized records and the group-commit
// Sync on a scratch log through the same vfs: one round is the log work of
// one 256-row insert (nine page images and a commit record). It returns the
// time of one round, appends and sync.
func probeWAL(e *env) (roundNs float64, err error) {
	path := e.path("probe.wal")
	os.Remove(path)
	log, err := wal.OpenAt(e.fs, path)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	defer log.Close()
	payload := make([]byte, pageSize)
	const images = 9
	var appendT, syncT time.Duration
	rounds := e.scale.ProbeOps
	for r := 0; r < rounds; r++ {
		sp := e.tr.begin("wal", "Append x 10")
		for i := 0; i < images; i++ {
			if err := log.Append(wal.Record{Type: wal.RecPageImage, TxnID: uint64(r + 1), PageID: pager.PageID(i + 1), Payload: payload}); err != nil {
				sp.end()
				return 0, err
			}
		}
		err := log.Append(wal.Record{Type: wal.RecCommit, TxnID: uint64(r + 1)})
		appendT += sp.end()
		if err != nil {
			return 0, err
		}
		sp = e.tr.begin("wal", "Sync")
		err = log.Sync()
		syncT += sp.end()
		if err != nil {
			return 0, err
		}
	}
	e.res.PerLayer["wal.append_us"] = float64(appendT) / float64(rounds*(images+1)) / 1e3
	e.res.PerLayer["wal.sync_us"] = float64(syncT) / float64(rounds) / 1e3
	return float64(appendT+syncT) / float64(rounds), nil
}

// probeCompact times one synchronous Compact on a copy of the database at
// its end state: for the writing workloads the fold of AutoMergeTails fresh
// tail batches and whatever level folds that cascades into, for the others
// (no compaction policy) a full reorganize.
func probeCompact(e *env, path string, ps probeSpec) (float64, error) {
	cp := e.path("probe_compact.rdnt")
	removeDB(cp)
	defer removeDB(cp)
	if err := copyFile(path, cp); err != nil {
		return 0, err
	}
	db, err := rs.OpenWithOptions(cp, &rs.Options{DurableInserts: ps.wal, FS: e.fs})
	if err != nil {
		return 0, err
	}
	if ps.wal {
		// Give the fold something to fold: as many tail batches as trigger
		// a background merge.
		fl := newFleet(e.seed+2, ingestCars)
		for i := 0; i < autoMergeTails; i++ {
			if err := db.Insert(ps.table, fl.rows(fl.take(nil, batchLen))); err != nil {
				db.Close()
				return 0, err
			}
		}
	}
	sp := e.tr.begin("table", "Compact")
	err = db.Compact(ps.table)
	d := sp.end()
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	return d.Seconds(), err
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
